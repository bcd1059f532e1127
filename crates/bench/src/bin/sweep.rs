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
//!
//! `--full` runs the larger, slower configuration and `--tiny` the
//! miniature CI one. `--seeds` takes a count, which sweeps `--seed`
//! (default 2024) and the seeds after it, or an explicit list: `--seeds
//! 2024,` is the one seed 2024. `--resume DIR` checkpoints every job
//! into its own subdirectory of `DIR` and continues interrupted jobs
//! from their newest valid snapshot; `--trace DIR` streams one `.jsonl`
//! trace per job into `DIR` (render them with the `trace_report` bin).
//! A malformed flag exits with status 2.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use adaptivefl_bench::sweep::io::{read_records, record_path, write_record};
use adaptivefl_bench::sweep::{
    evaluate_claims, grids, report, run_parallel, summarize_cells, Cell, CellRecord, JobOpts,
    VerdictsFile,
};

/// The committed record store: fast-mode records only.
const DEFAULT_OUT: &str = "results/sweep";

/// The sweep's flags (see the module docs).
#[derive(Debug)]
struct Args {
    full: bool,
    tiny: bool,
    seed: u64,
    seeds: Vec<u64>,
    /// `None` picks the hardware default.
    jobs: Option<usize>,
    /// `None` runs every experiment.
    experiments: Option<Vec<String>>,
    out: PathBuf,
    check: Option<PathBuf>,
    resume: Option<PathBuf>,
    trace: Option<PathBuf>,
}

/// Parses the command line.
///
/// `--tiny` and `--full` cells keep the fast cells' slugs, so their
/// records would land in the committed store as if they were fast
/// ones, and later sweeps would skip and aggregate them. Both
/// therefore need an explicit `--out` other than [`DEFAULT_OUT`].
///
/// # Errors
///
/// An unknown flag, a missing or malformed value, a zero `--jobs`, an
/// empty or zero `--seeds`, or `--tiny`/`--full` without `--out`.
fn parse_args(words: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        full: false,
        tiny: false,
        seed: 2024,
        seeds: Vec::new(),
        jobs: None,
        experiments: None,
        out: PathBuf::from(DEFAULT_OUT),
        check: None,
        resume: None,
        trace: None,
    };
    let mut seeds_spec: Option<String> = None;
    let mut it = words.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--full" => args.full = true,
            "--tiny" => args.tiny = true,
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--seeds" => seeds_spec = Some(value("a count or a,b,c list")?),
            "--jobs" => match value("a positive integer")?.parse() {
                Ok(n) if n > 0 => args.jobs = Some(n),
                _ => return Err("--jobs needs a positive integer".into()),
            },
            "--experiments" => {
                let list = value("a comma-separated list")?;
                args.experiments = Some(
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--check" => args.check = Some(PathBuf::from(value("a file")?)),
            "--resume" => args.resume = Some(PathBuf::from(value("a directory")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown sweep argument {other}")),
        }
    }
    args.seeds = match seeds_spec {
        None => vec![args.seed],
        Some(spec) => parse_seed_spec(&spec, args.seed)?,
    };
    if (args.tiny || args.full) && args.out == Path::new(DEFAULT_OUT) {
        return Err(format!(
            "--tiny and --full records must not mix with the fast records in {DEFAULT_OUT}; \
             pass --out DIR"
        ));
    }
    Ok(args)
}

/// Resolves a `--seeds` argument: a bare count expands to consecutive
/// seeds from `base`, a comma-separated list is taken verbatim.
///
/// # Errors
///
/// An empty list, a zero count, or unparseable integers.
fn parse_seed_spec(spec: &str, base: u64) -> Result<Vec<u64>, String> {
    if spec.contains(',') {
        let seeds = spec
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse())
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|_| "--seeds list needs integers")?;
        if seeds.is_empty() {
            return Err("--seeds list must not be empty".into());
        }
        Ok(seeds)
    } else {
        let n: u64 = spec
            .parse()
            .map_err(|_| "--seeds needs a count or a,b,c list")?;
        if n == 0 {
            return Err("--seeds count must be positive".into());
        }
        Ok((0..n).map(|i| base + i).collect())
    }
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
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.check {
        return check_verdicts(path);
    }

    let cells: Vec<Cell> = if args.tiny {
        grids::tiny(args.seed)
    } else {
        let names: Vec<String> = args
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
        .filter(|(c, s)| !record_path(&args.out, &c.slug, *s).exists())
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
        args.out.display()
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
        let path = write_record(&args.out, &record).expect("write sweep record");
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
    let records = read_records(&args.out).expect("read sweep records");
    if records.is_empty() {
        eprintln!("no records under {}", args.out.display());
        return ExitCode::FAILURE;
    }
    let summaries = summarize_cells(&records);
    let stats_path = args.out.join("stats.json");
    std::fs::write(
        &stats_path,
        serde_json::to_string_pretty(&summaries).expect("serialise stats"),
    )
    .expect("write stats.json");
    println!("[wrote {}]", stats_path.display());

    let verdicts = evaluate_claims(&records);
    let verdicts_path = args.out.join("verdicts.json");
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

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_defaults() {
        let a = parse(&[]).unwrap();
        assert!(!a.full && !a.tiny);
        assert_eq!((a.seed, a.seeds), (2024, vec![2024]));
        assert_eq!(a.jobs, None);
        assert_eq!(a.experiments, None);
        assert_eq!(a.out, PathBuf::from(DEFAULT_OUT));
        assert_eq!((a.check, a.resume, a.trace), (None, None, None));
    }

    #[test]
    fn args_parse_all_shared_flags() {
        let a = parse(&[
            "--full", "--seed", "7", "--seeds", "3", "--jobs", "4", "--resume", "/tmp/ck",
            "--trace", "/tmp/tr", "--out", "/tmp/o",
        ])
        .unwrap();
        assert!(a.full);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seeds, vec![7, 8, 9]);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.resume.as_deref(), Some(Path::new("/tmp/ck")));
        assert_eq!(a.trace.as_deref(), Some(Path::new("/tmp/tr")));
        assert_eq!(a.out, PathBuf::from("/tmp/o"));
    }

    #[test]
    fn args_seeds_count_expands_from_seed_regardless_of_flag_order() {
        let a = parse(&["--seeds", "2", "--seed", "100"]).unwrap();
        assert_eq!(a.seeds, vec![100, 101]);
        let b = parse(&["--seed", "100", "--seeds", "2"]).unwrap();
        assert_eq!(b.seeds, vec![100, 101]);
    }

    #[test]
    fn args_seeds_explicit_list() {
        let a = parse(&["--seeds", "5,9,13"]).unwrap();
        assert_eq!(a.seeds, vec![5, 9, 13]);
        let b = parse(&["--seeds", " 5, 9 ,13"]).unwrap();
        assert_eq!(b.seeds, vec![5, 9, 13]);
    }

    #[test]
    fn args_sweep_and_shared_flags_mix_in_any_order() {
        let a = parse(&[
            "--out", "/tmp/x", "--seed", "3", "--tiny", "--check", "v.json",
        ])
        .unwrap();
        assert_eq!(a.seed, 3);
        assert!(a.tiny);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.check, Some(PathBuf::from("v.json")));
    }

    #[test]
    fn args_rejects_zero_seed_count() {
        let err = parse(&["--seeds", "0"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn args_rejects_zero_jobs() {
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn fast_sweeps_default_to_the_committed_store() {
        let a = parse(&["--experiments", "fig3, fig6", "--seeds", "2024,"]).unwrap();
        assert_eq!(a.out, PathBuf::from(DEFAULT_OUT));
        assert_eq!(a.experiments, Some(vec!["fig3".into(), "fig6".into()]));
        assert!(!a.tiny);
    }

    #[test]
    fn tiny_and_full_need_their_own_out_dir() {
        for flag in ["--tiny", "--full"] {
            assert!(parse(&[flag]).is_err(), "{flag}");
            assert!(parse(&[flag, "--out", DEFAULT_OUT]).is_err(), "{flag}");
            let a = parse(&[flag, "--out", "/tmp/sweep"]).unwrap();
            assert_eq!(a.out, PathBuf::from("/tmp/sweep"));
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
