//! Parallel multi-seed sweep over the experiment grids, with
//! statistical aggregation and machine-readable verdicts.
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin sweep -- \
//!     [--full] [--seed N] [--seeds N|a,b,c] [--jobs M] \
//!     [--experiments table3,fig3] [--tiny] [--out DIR] \
//!     [--resume DIR] [--trace DIR]
//! cargo run --release -p adaptivefl-bench --bin sweep -- --check FILE
//! ```
//!
//! Runs `cells × seeds` fully isolated jobs across `--jobs` worker
//! threads (hardware default), writing one record per job under
//! `<out>/<slug>/<seed>.json` (default `results/sweep/`, which holds
//! fast-mode records only: `--tiny` and `--full` need another
//! `--out`), then aggregates mean ± 95 % CI per cell into
//! `<out>/stats.json`, re-evaluates every paper claim as a sign-test
//! verdict in `<out>/verdicts.json` and prints both as markdown. Jobs
//! already recorded are skipped, so an interrupted sweep resumes where
//! it stopped; `--check FILE` schema-validates an existing verdicts
//! file and exits.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use adaptivefl_bench::sweep::io::{read_records, record_path, write_record};
use adaptivefl_bench::sweep::{
    evaluate_claims, grids, report, run_parallel, summarize_cells, Cell, CellRecord, JobOpts,
    VerdictsFile,
};
use adaptivefl_bench::Args;

/// The committed record store: fast-mode records only.
const DEFAULT_OUT: &str = "results/sweep";

#[derive(Debug)]
struct SweepFlags {
    tiny: bool,
    experiments: Option<Vec<String>>,
    out: PathBuf,
    check: Option<PathBuf>,
}

/// Parses the shared flags with [`Args::parse_from`], then the
/// sweep-specific ones it leaves over.
///
/// `--tiny` and `--full` cells keep the fast cells' slugs, so their
/// records would land in the committed store as if they were fast
/// ones, and later sweeps would skip and aggregate them. Both
/// therefore need an explicit `--out` other than [`DEFAULT_OUT`].
fn parse_args(words: impl IntoIterator<Item = String>) -> Result<(Args, SweepFlags), String> {
    let (args, leftovers) = Args::parse_from(words)?;
    let mut flags = SweepFlags {
        tiny: false,
        experiments: None,
        out: PathBuf::from(DEFAULT_OUT),
        check: None,
    };
    let mut it = leftovers.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--tiny" => flags.tiny = true,
            "--experiments" => {
                let list = value("a comma-separated list")?;
                flags.experiments = Some(
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--out" => flags.out = PathBuf::from(value("a directory")?),
            "--check" => flags.check = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown sweep argument {other}")),
        }
    }
    if (flags.tiny || args.full) && flags.out == Path::new(DEFAULT_OUT) {
        return Err(format!(
            "--tiny and --full records must not mix with the fast records in {DEFAULT_OUT}; \
             pass --out DIR"
        ));
    }
    Ok((args, flags))
}

fn check_verdicts(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let file: VerdictsFile = match serde_json::from_str(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{} is not a verdicts file: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match file.validate() {
        Ok(()) => {
            let (r, p, n, nd) = file.tally();
            println!(
                "{} valid: {} claims ({r} reproduced, {p} partial, {n} not, {nd} no-data), seeds {:?}",
                path.display(),
                file.claims.len(),
                file.seeds
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} invalid: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let (args, flags) = match parse_args(std::env::args().skip(1)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &flags.check {
        return check_verdicts(path);
    }

    let cells: Vec<Cell> = if flags.tiny {
        grids::tiny(args.seed)
    } else {
        let names: Vec<String> = flags
            .experiments
            .clone()
            .unwrap_or_else(|| grids::EXPERIMENTS.iter().map(|s| s.to_string()).collect());
        names
            .iter()
            .flat_map(|name| {
                grids::experiment(name, args.full, args.seed).unwrap_or_else(|| {
                    eprintln!(
                        "unknown experiment {name:?} (known: {})",
                        grids::EXPERIMENTS.join(", ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };

    // One job per (cell, seed) not yet recorded on disk.
    let jobs: Vec<(&Cell, u64)> = cells
        .iter()
        .flat_map(|c| args.seeds.iter().map(move |s| (c, *s)))
        .filter(|(c, s)| !record_path(&flags.out, &c.slug, *s).exists())
        .collect();
    let skipped = cells.len() * args.seeds.len() - jobs.len();
    let threads = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    println!(
        "sweep: {} cells x {} seeds = {} jobs ({} already recorded), {} thread(s), out {}",
        cells.len(),
        args.seeds.len(),
        jobs.len(),
        skipped,
        threads,
        flags.out.display()
    );
    if jobs.is_empty() {
        println!("all records present; skipping straight to aggregation");
    }

    let opts = JobOpts {
        resume: args.resume.clone(),
        trace: args.trace.clone(),
    };
    let finished = AtomicUsize::new(0);
    let total = jobs.len();
    run_parallel(&jobs, threads, |_, (cell, seed)| {
        let result = cell.execute(*seed, &opts);
        let record = CellRecord::new(cell, *seed, &result);
        let path = write_record(&flags.out, &record).expect("write sweep record");
        let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
        println!(
            "[{n}/{total}] {} s{seed}: full {:.3} avg {:.3} -> {}",
            cell.slug,
            record.best_full,
            record.best_avg,
            path.display()
        );
    });

    // Aggregate everything recorded under the out dir (this run plus
    // any earlier partial runs).
    let records = read_records(&flags.out).expect("read sweep records");
    if records.is_empty() {
        eprintln!("no records under {}", flags.out.display());
        return ExitCode::FAILURE;
    }
    let summaries = summarize_cells(&records);
    let stats_path = flags.out.join("stats.json");
    std::fs::write(
        &stats_path,
        serde_json::to_string_pretty(&summaries).expect("serialise stats"),
    )
    .expect("write stats.json");
    println!("[wrote {}]", stats_path.display());

    let verdicts = evaluate_claims(&records);
    let verdicts_path = flags.out.join("verdicts.json");
    std::fs::write(
        &verdicts_path,
        serde_json::to_string_pretty(&verdicts).expect("serialise verdicts"),
    )
    .expect("write verdicts.json");
    println!("[wrote {}]", verdicts_path.display());

    print!("{}", report::tables(&summaries, &verdicts));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<SweepFlags, String> {
        parse_args(words.iter().map(|s| s.to_string())).map(|(_, flags)| flags)
    }

    #[test]
    fn fast_sweeps_default_to_the_committed_store() {
        let f = parse(&["--experiments", "fig3, fig6", "--seeds", "2024,"]).unwrap();
        assert_eq!(f.out, PathBuf::from(DEFAULT_OUT));
        assert_eq!(f.experiments, Some(vec!["fig3".into(), "fig6".into()]));
        assert!(!f.tiny);
    }

    #[test]
    fn tiny_and_full_need_their_own_out_dir() {
        for flag in ["--tiny", "--full"] {
            assert!(parse(&[flag]).is_err(), "{flag}");
            assert!(parse(&[flag, "--out", DEFAULT_OUT]).is_err(), "{flag}");
            let f = parse(&[flag, "--out", "/tmp/sweep"]).unwrap();
            assert_eq!(f.out, PathBuf::from("/tmp/sweep"));
        }
        assert!(parse(&["--tiny", "--out", "/tmp/sweep"]).unwrap().tiny);
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--check"]).is_err());
        for shared in [
            &["--jobs", "0"][..],
            &["--seed", "x"],
            &["--seeds", "0"],
            &["--seeds", ","],
            &["--resume"],
            &["--trace"],
        ] {
            assert!(parse(shared).is_err(), "{shared:?}");
        }
    }
}
