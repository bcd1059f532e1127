//! Renders the sweep records into one markdown report,
//! `results/SUMMARY.md`: cross-seed mean±95 % CI tables per experiment
//! and the statistical verdict for every paper claim
//! ([`adaptivefl_bench::sweep::report`]). `--sweep <dir>` renders the
//! records under `<dir>` into `<dir>/SUMMARY.md` instead. Any other
//! argument is an error (exit status 2).
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin summarize [--sweep <dir>]
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use adaptivefl_bench::results_dir;
use adaptivefl_bench::sweep::{read_records, report};

/// The only flag `summarize` takes.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    sweep: Option<PathBuf>,
}

/// Parses `--sweep <dir>`; any other argument, the sweep's run flags
/// included, is an error.
fn parse_args(words: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = words.into_iter();
    while let Some(a) = it.next() {
        if a != "--sweep" {
            return Err(format!("unknown summarize argument {a}"));
        }
        flags.sweep = Some(PathBuf::from(
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
    fs::write(&target, report::summary(&records, &label)).expect("write summary");
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
    fn sweep_takes_a_directory() {
        assert_eq!(parse(&[]).unwrap(), Flags::default());
        let f = parse(&["--sweep", "/tmp/sw"]).unwrap();
        assert_eq!(f.sweep, Some(PathBuf::from("/tmp/sw")));
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
