//! Lightweight tabular reports.
//!
//! Every experiment produces one or more [`Table`]s: the same rows that
//! EXPERIMENTS.md records, printable as aligned ASCII and archivable as
//! JSON.  The JSON goes through [`anonrv_obs::json`], the codec behind
//! every other artifact of the workspace, as one compact line.  Keeping
//! this in-crate (rather than pulling a table crate) keeps the dependency
//! set to the pre-approved list.

use std::fmt::Write as _;

use anonrv_obs::json::{self, Value};

/// A titled table with a header row, data rows and free-form notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier, e.g. `"EXP-L32"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; every row should have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed below the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a data row.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        debug_assert_eq!(row.len(), self.headers.len(), "row width mismatch in table {}", self.id);
        self.rows.push(row);
    }

    /// Append a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column index by header name.
    pub fn column(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)
    }

    /// All values of the named column.
    pub fn column_values(&self, header: &str) -> Vec<&str> {
        match self.column(header) {
            Some(i) => self.rows.iter().map(|r| r[i].as_str()).collect(),
            None => Vec::new(),
        }
    }

    /// Render the table as aligned, pipe-separated ASCII (GitHub-flavoured
    /// markdown, so it can be pasted into EXPERIMENTS.md verbatim).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = writeln!(out);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out);
            let _ = writeln!(out, "> {}", note);
        }
        out
    }

    /// The table as a JSON object with the members `id`, `title`,
    /// `headers`, `rows` and `notes`, in that order.
    pub fn to_value(&self) -> Value {
        let strings =
            |cells: &[String]| Value::Arr(cells.iter().map(|c| c.as_str().into()).collect());
        json::obj([
            ("id", Value::from(self.id.as_str())),
            ("title", Value::from(self.title.as_str())),
            ("headers", strings(&self.headers)),
            ("rows", Value::Arr(self.rows.iter().map(|row| strings(row)).collect())),
            ("notes", strings(&self.notes)),
        ])
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A group of tables produced by one experiment binary (or by `exp_all`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// The tables, in presentation order.
    pub tables: Vec<Table>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a table.
    pub fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Render every table.
    pub fn render(&self) -> String {
        self.tables.iter().map(Table::render).collect::<Vec<_>>().join("\n")
    }

    /// Serialise to one compact line of JSON: `{"tables": [...]}`, each
    /// table as [`Table::to_value`] builds it.
    pub fn to_json(&self) -> String {
        json::obj([("tables", Value::Arr(self.tables.iter().map(Table::to_value).collect()))])
            .to_string()
    }

    /// Find a table by id.
    pub fn table(&self, id: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.id == id)
    }
}

/// One workload's pair-orbit planning statistics: how far the sweep planner
/// compressed its STIC batch, plus the cache and shard provenance that make
/// `--exhaustive` runs auditable (which work was actually re-executed, and
/// by which slice of a sharded run).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCompression {
    /// Instance label.
    pub label: String,
    /// Number of ordered pairs (`n²`).
    pub pairs: usize,
    /// Number of pair-orbit classes.
    pub classes: usize,
    /// Representative simulations executed.
    pub executed: usize,
    /// Member STICs answered.
    pub answered: usize,
    /// Trajectory timelines served warm from the persistent plan cache
    /// (`anonrv-store`); always 0 for in-memory runs without a cache dir.
    pub cache_hits: usize,
    /// The subset of [`PlanCompression::cache_hits`] served by **prefix
    /// truncation** of a recording made at a longer horizon (exact-horizon
    /// hits are `cache_hits - cache_prefix_hits`).
    pub cache_prefix_hits: usize,
    /// Trajectory timelines recorded cold by executing the agent program.
    pub cache_misses: usize,
    /// Shard provenance when the instance was produced by one slice of a
    /// sharded run; `None` for unsharded execution.
    pub shard: Option<ShardProvenance>,
}

/// Which slice of a sharded run produced an instance's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProvenance {
    /// Shard index, in `0..shards`.
    pub index: usize,
    /// Total number of shards.
    pub shards: usize,
}

impl PlanCompression {
    /// A fresh per-instance accumulator: no work executed yet, no cache
    /// traffic, unsharded.
    pub fn new(label: impl Into<String>, pairs: usize, classes: usize) -> Self {
        PlanCompression {
            label: label.into(),
            pairs,
            classes,
            executed: 0,
            answered: 0,
            cache_hits: 0,
            cache_prefix_hits: 0,
            cache_misses: 0,
            shard: None,
        }
    }

    /// Fold a [`SweepSession`](anonrv_store::SweepSession)'s statistics into
    /// this instance's accumulator — the one bridge between the
    /// orchestration layer's [`SessionStats`](anonrv_store::SessionStats)
    /// and the report tables, so the experiments cannot each count
    /// differently.
    pub fn absorb(&mut self, stats: &anonrv_store::SessionStats) {
        self.executed += stats.executed;
        self.answered += stats.answered;
        self.cache_hits += stats.timeline_hits;
        self.cache_prefix_hits += stats.timeline_prefix_hits;
        self.cache_misses += stats.timeline_misses;
        if let Some((index, shards)) = stats.shard {
            self.shard = Some(ShardProvenance { index, shards });
        }
    }

    /// The pair-space compression ratio `n² / classes`.
    pub fn ratio(&self) -> f64 {
        self.pairs as f64 / self.classes as f64
    }

    /// The cache provenance rendered for the note column: `"cache 3w/5c"` =
    /// 3 timelines warm, 5 recorded cold; prefix-served hits annotate the
    /// warm count (`"cache 3w(2p)/5c"` = 2 of the 3 by prefix truncation of
    /// a longer recording).
    pub fn cache_column(&self) -> String {
        if self.cache_prefix_hits > 0 {
            format!(
                "cache {}w({}p)/{}c",
                self.cache_hits, self.cache_prefix_hits, self.cache_misses
            )
        } else {
            format!("cache {}w/{}c", self.cache_hits, self.cache_misses)
        }
    }

    /// The shard provenance rendered for the note column (`"shard 0/2"`, or
    /// `"unsharded"`).
    pub fn shard_column(&self) -> String {
        match self.shard {
            Some(ShardProvenance { index, shards }) => format!("shard {index}/{shards}"),
            None => "unsharded".to_string(),
        }
    }
}

/// Render per-instance planning statistics as a single table note,
/// including the cache hit/miss and shard provenance columns.
pub fn compression_note(stats: &[PlanCompression]) -> String {
    let total_answered: usize = stats.iter().map(|s| s.answered).sum();
    let total_executed: usize = stats.iter().map(|s| s.executed).sum();
    let total_hits: usize = stats.iter().map(|s| s.cache_hits).sum();
    let total_misses: usize = stats.iter().map(|s| s.cache_misses).sum();
    let detail: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "{}: {} pairs -> {} orbits ({:.1}x), {}/{} sims, {}, {}",
                s.label,
                s.pairs,
                s.classes,
                s.ratio(),
                s.executed,
                s.answered,
                s.cache_column(),
                s.shard_column(),
            )
        })
        .collect();
    format!(
        "Pair-orbit planning executed {total_executed} representative simulations for \
         {total_answered} STICs (timelines: {total_hits} warm / {total_misses} recorded) — {}.",
        detail.join("; ")
    )
}

/// Format a `u128` round count compactly (scientific-ish for huge values).
pub fn fmt_rounds(rounds: u128) -> String {
    if rounds < 1_000_000 {
        rounds.to_string()
    } else {
        let mut value = rounds as f64;
        let mut exp = 0u32;
        while value >= 10.0 {
            value /= 10.0;
            exp += 1;
        }
        format!("{value:.2}e{exp}")
    }
}

/// Format an optional round count (`-` when absent).
pub fn fmt_opt_rounds(rounds: Option<u128>) -> String {
    rounds.map(fmt_rounds).unwrap_or_else(|| "-".to_string())
}

/// Format a ratio with 2 decimals, guarding against division by zero.
pub fn fmt_ratio(numerator: u128, denominator: u128) -> String {
    if denominator == 0 {
        "-".to_string()
    } else {
        format!("{:.3}", numerator as f64 / denominator as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligns_columns_and_keeps_order() {
        let mut t = Table::new("EXP-X", "demo", &["family", "n", "time"]);
        t.push_row(["ring", "6", "12"]);
        t.push_row(["torus", "16", "1234"]);
        t.push_note("a note");
        let rendered = t.render();
        assert!(rendered.contains("## EXP-X — demo"));
        assert!(rendered.contains("| family | n  | time |"));
        assert!(rendered.contains("| torus  | 16 | 1234 |"));
        assert!(rendered.contains("> a note"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn table_columns_are_addressable_by_name() {
        let mut t = Table::new("EXP-X", "demo", &["k", "met"]);
        t.push_row(["1", "yes"]);
        t.push_row(["2", "no"]);
        assert_eq!(t.column("met"), Some(1));
        assert_eq!(t.column("missing"), None);
        assert_eq!(t.column_values("met"), vec!["yes", "no"]);
        assert!(t.column_values("missing").is_empty());
    }

    /// Read a parsed table object back, checking its five members and
    /// their order.
    fn decode_table(v: &Value) -> Table {
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["id", "title", "headers", "rows", "notes"]);
        let member = |key| v.get(key).unwrap();
        let text = |v: &Value| v.as_str().unwrap().to_string();
        let texts = |v: &Value| v.as_array().unwrap().iter().map(text).collect::<Vec<_>>();
        Table {
            id: text(member("id")),
            title: text(member("title")),
            headers: texts(member("headers")),
            rows: member("rows").as_array().unwrap().iter().map(texts).collect(),
            notes: texts(member("notes")),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report::new();
        let mut t = Table::new("EXP-Y", "json", &["a"]);
        t.push_row(["1"]);
        r.push(t);
        // strings the encoder must escape, and non-ASCII text it must not mangle
        let mut t = Table::new("EXP-ESC", "a \"quoted\" title — Q̂_2", &["Q̂_h", "path"]);
        t.push_row(["say \"hi\"", "C:\\dir\\file"]);
        t.push_row(["two\nlines", "—"]);
        t.push_note("tab\tand \\ backslash — Q̂");
        r.push(t);
        let json = r.to_json();
        assert!(!json.contains('\n'), "the report is one compact line: {json}");
        let back = json::parse(&json).unwrap();
        assert_eq!(back.as_object().unwrap().len(), 1, "the report's one member is `tables`");
        let tables: Vec<Table> =
            back.get("tables").unwrap().as_array().unwrap().iter().map(decode_table).collect();
        assert_eq!(tables, r.tables);
        assert!(r.table("EXP-Y").is_some());
        assert!(r.table("EXP-Z").is_none());
    }

    #[test]
    fn compression_note_summarises_per_instance_stats() {
        let mut ring = PlanCompression::new("ring-8", 64, 8);
        ring.executed = 6;
        ring.answered = 24;
        ring.cache_hits = 5;
        ring.cache_prefix_hits = 2;
        ring.cache_misses = 3;
        ring.shard = Some(ShardProvenance { index: 0, shards: 2 });
        let mut torus = PlanCompression::new("torus-3x4", 144, 12);
        torus.executed = 4;
        torus.answered = 16;
        torus.cache_misses = 12;
        let stats = vec![ring, torus];
        assert_eq!(stats[0].ratio(), 8.0);
        let note = compression_note(&stats);
        assert!(note.contains("10 representative simulations for 40 STICs"), "{note}");
        assert!(note.contains("timelines: 5 warm / 15 recorded"), "{note}");
        assert!(
            note.contains(
                "ring-8: 64 pairs -> 8 orbits (8.0x), 6/24 sims, cache 5w(2p)/3c, shard 0/2"
            ),
            "{note}"
        );
        assert!(
            note.contains(
                "torus-3x4: 144 pairs -> 12 orbits (12.0x), 4/16 sims, cache 0w/12c, unsharded"
            ),
            "{note}"
        );
    }

    #[test]
    fn absorb_folds_session_stats_into_the_accumulator() {
        use anonrv_store::SessionStats;
        let mut instance = PlanCompression::new("torus-3x4", 144, 12);
        instance.absorb(&SessionStats {
            timeline_hits: 4,
            timeline_prefix_hits: 3,
            timeline_misses: 2,
            symbolic_timelines: 0,
            executed: 7,
            answered: 20,
            outcome: None,
            shard: Some((1, 2)),
        });
        instance.absorb(&SessionStats {
            timeline_hits: 1,
            timeline_prefix_hits: 0,
            timeline_misses: 0,
            symbolic_timelines: 0,
            executed: 1,
            answered: 4,
            outcome: None,
            shard: None,
        });
        assert_eq!((instance.executed, instance.answered), (8, 24));
        assert_eq!(instance.cache_column(), "cache 5w(3p)/2c");
        assert_eq!(instance.shard_column(), "shard 1/2");
    }

    #[test]
    fn round_formatting() {
        assert_eq!(fmt_rounds(999_999), "999999");
        assert_eq!(fmt_rounds(1_000_000), "1.00e6");
        assert_eq!(fmt_rounds(u128::MAX), "3.40e38");
        assert_eq!(fmt_opt_rounds(None), "-");
        assert_eq!(fmt_opt_rounds(Some(42)), "42");
        assert_eq!(fmt_ratio(1, 0), "-");
        assert_eq!(fmt_ratio(3, 4), "0.750");
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new("EXP-D", "display", &["x"]);
        assert_eq!(format!("{t}"), t.render());
    }
}
