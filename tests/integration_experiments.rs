//! End-to-end test of the experiment harness: every experiment runs in its
//! quick configuration and produces the tables EXPERIMENTS.md records.

use anonrv_experiments::{run_all, Report, Table};
use anonrv_obs::json::{self, Value};

fn quick_report() -> Report {
    run_all(false)
}

#[test]
fn every_experiment_produces_its_table() {
    let report = quick_report();
    let expected = [
        "EXP-FIG1",
        "EXP-SHRINK",
        "EXP-L31",
        "EXP-L32",
        "EXP-P31",
        "EXP-T31",
        "EXP-T41",
        "EXP-P41",
        "EXP-RAND",
        "EXP-OPEN",
        "EXP-ABL-UXS",
        "EXP-ABL-LABEL",
        "EXP-ABL-PAD",
    ];
    assert_eq!(report.tables.len(), expected.len());
    for id in expected {
        let table = report.table(id).unwrap_or_else(|| panic!("missing table {id}"));
        assert!(!table.headers.is_empty(), "{id} must have headers");
        assert!(table.num_rows() >= 1, "{id} must have at least one row");
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len(), "{id} row width mismatch");
        }
    }
}

/// Read a parsed table object back, checking its five members and their
/// order.
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
fn the_report_round_trips_through_json_and_renders_markdown() {
    let report = quick_report();
    let json = report.to_json();
    let back = json::parse(&json).expect("report JSON must parse");
    let tables = back.get("tables").and_then(Value::as_array).expect("a `tables` array");
    let tables: Vec<Table> = tables.iter().map(decode_table).collect();
    assert_eq!(tables, report.tables);
    let rendered = report.render();
    assert!(rendered.contains("## EXP-T31"));
    assert!(rendered.contains("| k "));
}

#[test]
fn headline_outcomes_match_the_paper_claims_on_the_quick_suite() {
    let report = quick_report();

    // EXP-L32: every SymmRV STIC met within the bound
    let l32 = report.table("EXP-L32").unwrap();
    for (met, total) in l32.column_values("met").iter().zip(l32.column_values("STICs")) {
        assert_eq!(*met, total, "EXP-L32: every STIC must be met");
    }
    // EXP-P31: every AsymmRV STIC met
    let p31 = report.table("EXP-P31").unwrap();
    for (met, total) in p31.column_values("met").iter().zip(p31.column_values("STICs")) {
        assert_eq!(*met, total, "EXP-P31: every STIC must be met");
    }
    // EXP-T31: universal algorithm agrees with the characterisation on every row
    let t31 = report.table("EXP-T31").unwrap();
    assert!(t31.column_values("agreement").iter().all(|v| *v == "true"));
    // EXP-L31: no infeasible STIC was met
    let l31 = report.table("EXP-L31").unwrap();
    assert!(l31
        .column_values("UniversalRV met")
        .iter()
        .all(|v| *v == "false" || *v == "(not simulated)"));
    assert!(l31.column_values("classified infeasible").iter().all(|v| *v == "true"));
    assert!(l31.column_values("trajectory argument").iter().all(|v| *v == "true"));
    // EXP-T41: lower bound holds for every k
    let t41 = report.table("EXP-T41").unwrap();
    assert!(t41.column_values("meets all").iter().all(|v| *v == "true"));
    assert!(t41.column_values("truncated (< threshold) meets all").iter().all(|v| *v == "false"));
    // EXP-FIG1: the construction checks out
    let fig1 = report.table("EXP-FIG1").unwrap();
    assert!(fig1.column_values("fully symmetric").iter().all(|v| *v == "true"));
    assert!(fig1.column_values("4-regular").iter().all(|v| *v == "true"));
    // EXP-RAND: the randomized baseline meets where determinism cannot
    let rand = report.table("EXP-RAND").unwrap();
    for (met, trials) in rand.column_values("met").iter().zip(rand.column_values("trials")) {
        assert_eq!(*met, trials, "EXP-RAND: every randomized trial must meet");
    }
    // EXP-OPEN: the simplified algorithm meets on every row
    let open = report.table("EXP-OPEN").unwrap();
    assert!(open.column_values("AsymmOnly time").iter().all(|v| *v != "-"));
}
