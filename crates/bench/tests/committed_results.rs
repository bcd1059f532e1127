//! The committed aggregates under `results/` are exactly what the
//! committed sweep records render to. `stats.json` and `verdicts.json`
//! are written by `sweep`, `SUMMARY.md` by `summarize`; none is edited
//! by hand, and these tests fail as soon as one of them disagrees with
//! the records in `results/sweep/<slug>/<seed>.json`.

use std::path::PathBuf;

use adaptivefl_bench::sweep::{evaluate_claims, read_records, report, summarize_cells, CellRecord};

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed(name: &str) -> String {
    let path = results().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn records() -> Vec<CellRecord> {
    let records = read_records(&results().join("sweep")).expect("committed sweep records");
    assert!(!records.is_empty(), "no committed sweep records");
    records
}

#[test]
fn committed_stats_match_the_records() {
    let rendered = serde_json::to_string_pretty(&summarize_cells(&records())).unwrap();
    assert!(
        committed("sweep/stats.json") == rendered,
        "results/sweep/stats.json is stale: rerun `sweep` over the committed records"
    );
}

#[test]
fn committed_verdicts_match_the_records() {
    let verdicts = evaluate_claims(&records());
    let rendered = serde_json::to_string_pretty(&verdicts).unwrap();
    assert!(
        committed("sweep/verdicts.json") == rendered,
        "results/sweep/verdicts.json is stale: rerun `sweep` over the committed records"
    );
    let (_, _, _, no_data) = verdicts.tally();
    assert_eq!(no_data, 0, "every claim's experiment has committed records");
}

#[test]
fn committed_summary_matches_the_records() {
    let rendered = report::summary(&records(), "results/sweep");
    assert!(
        committed("SUMMARY.md") == rendered,
        "results/SUMMARY.md is stale: rerun `summarize`"
    );
}
