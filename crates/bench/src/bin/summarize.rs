//! Renders the sweep records into one markdown report,
//! `results/SUMMARY.md`: cross-seed mean±95 % CI tables per experiment
//! and the statistical verdict for every paper claim
//! ([`adaptivefl_bench::sweep::report`]). `--sweep <dir>` renders the
//! records under `<dir>` into `<dir>/SUMMARY.md` instead. With
//! `--resume <dir>` it also reads the newest valid checkpoint of every
//! run under `<dir>` and reports the persisted histories (method,
//! completed rounds, best accuracy, communication waste). Any other
//! argument is an error (exit status 2).
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin summarize \
//!     [--resume <dir>] [--sweep <dir>]
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adaptivefl_bench::results_dir;
use adaptivefl_bench::sweep::{read_records, report};
use adaptivefl_core::metrics::RunResult;
use adaptivefl_store::SnapshotStore;

/// One markdown table row per run directory under `dir`, built from
/// each run's newest valid snapshot. Histories round-trip through the
/// stable `RoundRecord`/`EvalRecord` codecs, so the derived metrics
/// (`comm_waste_rate`, best accuracies) match the live run exactly.
fn checkpoint_section(out: &mut String, dir: &Path) {
    let _ = writeln!(out, "\n## checkpoints ({})\n", dir.display());
    let mut runs: Vec<_> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => {
            let _ = writeln!(out, "*(unreadable: {e})*");
            return;
        }
    };
    runs.sort();
    let _ = writeln!(
        out,
        "| run | method | rounds | best full % | best avg % | waste % | sim secs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let mut shown = 0usize;
    for run in runs {
        let name = run.file_name().and_then(|s| s.to_str()).unwrap_or("?");
        let store = match SnapshotStore::open(&run) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let Ok(Some((_, snap))) = store.latest_valid() else {
            let _ = writeln!(out, "| {name} | - | no valid snapshot | - | - | - | - |");
            continue;
        };
        let rounds_done = snap.completed_rounds;
        let r = RunResult::from_history(snap.method_name.clone(), snap.rounds, snap.evals);
        let _ = writeln!(
            out,
            "| {name} | {} | {rounds_done} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.method,
            100.0 * r.best_full_accuracy(),
            100.0 * r.best_avg_accuracy(),
            100.0 * r.comm_waste_rate(),
            r.total_sim_secs(),
        );
        shown += 1;
    }
    let _ = writeln!(out, "\n*({shown} checkpointed runs)*");
}

/// The only flags `summarize` takes, each naming a directory.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    sweep: Option<PathBuf>,
    resume: Option<PathBuf>,
}

/// Parses `--sweep <dir>` and `--resume <dir>`; any other argument,
/// the sweep's run flags included, is an error.
fn parse_args(words: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = words.into_iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--sweep" => &mut flags.sweep,
            "--resume" => &mut flags.resume,
            other => return Err(format!("unknown summarize argument {other}")),
        };
        *slot = Some(PathBuf::from(
            it.next().ok_or(format!("{a} needs a directory"))?,
        ));
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let flags = match parse_args(std::env::args().skip(1)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("summarize: {e}");
            return ExitCode::from(2);
        }
    };
    // The committed report renders results/sweep into results/. Any
    // other record directory gets its report next to its records, so
    // it never overwrites the committed one. The label keeps the
    // committed report free of absolute paths.
    let (sweep_dir, label, target) = match flags.sweep {
        Some(d) => (d.clone(), d.display().to_string(), d.join("SUMMARY.md")),
        None => {
            let dir = results_dir();
            (
                dir.join("sweep"),
                "results/sweep".into(),
                dir.join("SUMMARY.md"),
            )
        }
    };
    let records = match read_records(&sweep_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot read sweep records under {label}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = report::summary(&records, &label);
    if let Some(ckpt_dir) = &flags.resume {
        checkpoint_section(&mut out, ckpt_dir);
    }

    fs::write(&target, out).expect("write summary");
    println!("wrote {}", target.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Flags, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn sweep_and_resume_take_directories() {
        assert_eq!(parse(&[]).unwrap(), Flags::default());
        let f = parse(&["--resume", "/tmp/ck", "--sweep", "/tmp/sw"]).unwrap();
        assert_eq!(f.sweep, Some(PathBuf::from("/tmp/sw")));
        assert_eq!(f.resume, Some(PathBuf::from("/tmp/ck")));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for words in [
            &["--sweep"][..],
            &["--resume"],
            &["--bogus"],
            &["--full"],
            &["--seed", "7"],
            &["--seeds", "2"],
            &["--jobs", "2"],
            &["--trace", "/tmp/tr"],
        ] {
            assert!(parse(words).is_err(), "{words:?}");
        }
    }
}
