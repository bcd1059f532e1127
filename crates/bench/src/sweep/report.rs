//! Markdown rendering of sweep records: the body of
//! `results/SUMMARY.md` and the `sweep` binary's console report.
//!
//! Both are pure functions of the records, so a committed summary can
//! be checked against the records it was rendered from
//! (`tests/committed_results.rs`).

use std::fmt::Write as _;

use super::record::CellRecord;
use super::stats::{summarize_cells, CellSummary};
use super::verdicts::{evaluate_claims, VerdictsFile};

/// `results/SUMMARY.md` for `records`; `label` names the record
/// directory in the section heading.
pub fn summary(records: &[CellRecord], label: &str) -> String {
    let mut out = String::from("# AdaptiveFL reproduction — results summary\n");
    let _ = writeln!(out, "\n## sweep ({label})\n");
    if records.is_empty() {
        let _ = writeln!(out, "*(no sweep records — run the `sweep` binary first)*");
    } else {
        out.push_str(&tables(
            &summarize_cells(records),
            &evaluate_claims(records),
        ));
    }
    out
}

/// One mean±95 % CI table per experiment, then one row per claim
/// verdict and the verdict tally.
pub fn tables(summaries: &[CellSummary], verdicts: &VerdictsFile) -> String {
    let mut out = String::new();
    let mut current = "";
    for s in summaries {
        if s.experiment != current {
            current = &s.experiment;
            let _ = writeln!(out, "\n### {current} (mean±95 % CI)\n");
            let _ = writeln!(out, "| cell | seeds | full % | avg % | waste % |");
            let _ = writeln!(out, "|---|---|---|---|---|");
        }
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            s.slug,
            s.seeds.len(),
            s.best_full.pct_pm(),
            s.best_avg.pct_pm(),
            s.comm_waste.pct_pm(),
        );
    }

    let _ = writeln!(out, "\n### verdicts\n");
    let _ = writeln!(
        out,
        "| claim | status | n | wins/losses/ties | p | mean diff |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for c in &verdicts.claims {
        let _ = writeln!(
            out,
            "| {} | **{}** | {} | {}/{}/{} | {:.4} | {:+.4} |",
            c.id, c.status, c.n, c.wins, c.losses, c.ties, c.p, c.mean_diff,
        );
    }
    let (reproduced, partial, not, no_data) = verdicts.tally();
    let _ = writeln!(
        out,
        "\n*({} claims: {reproduced} reproduced, {partial} partial, {not} not, {no_data} no-data; seeds {:?})*",
        verdicts.claims.len(),
        verdicts.seeds,
    );
    out
}
