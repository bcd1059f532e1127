//! Experiment harness for the paper's tables and figures.
//!
//! Every experiment's grid of runs is data in [`sweep::grids`]. The
//! `sweep` binary runs any subset of the grids as `cells × seeds`
//! isolated jobs and writes one record per job under
//! `results/sweep/<slug>/<seed>.json`; those records are the only run
//! output. `summarize` renders them into `results/SUMMARY.md` through
//! [`sweep::report`], and `table1` prints the analytic Table 1.
//!
//! `sweep` parses its run flags with [`Args`]: `--full`
//! for a larger (slower) configuration, `--seed`/`--seeds` for the
//! seeds, `--jobs` for worker threads, `--resume <dir>` to checkpoint
//! every run into its own subdirectory of `<dir>` and continue
//! interrupted runs from their newest valid snapshot, and
//! `--trace <dir>` to stream one `.jsonl` trace per run into `<dir>`
//! (render them with the `trace_report` bin). The default fast mode is
//! calibrated for a single CPU core.

pub mod sweep;

use std::fs;
use std::path::PathBuf;

use adaptivefl_core::sim::SimConfig;
use adaptivefl_data::SynthSpec;
use adaptivefl_models::ModelConfig;

/// Rounds between checkpoints when `--resume` is active.
pub const CHECKPOINT_EVERY: usize = 5;

/// Run options of the `sweep` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Larger, slower configuration (more rounds/samples).
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Seeds to sweep (`--seeds <n>` expands to `seed..seed+n`,
    /// `--seeds a,b,c` is an explicit list). Defaults to `[seed]`.
    pub seeds: Vec<u64>,
    /// Parallel sweep jobs (`--jobs <n>`); `None` lets the sweep
    /// engine pick the hardware default.
    pub jobs: Option<usize>,
    /// Checkpoint directory: every run checkpoints into its own
    /// subdirectory and resumes from it after an interruption.
    pub resume: Option<PathBuf>,
    /// Trace directory: every run streams a `.jsonl` trace into its
    /// own file under this directory.
    pub trace: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            full: false,
            seed: 2024,
            seeds: vec![2024],
            jobs: None,
            resume: None,
            trace: None,
        }
    }
}

impl Args {
    /// Parses the shared flags (`--full`, `--seed <n>`, `--seeds
    /// <n|a,b,c>`, `--jobs <n>`, `--resume <dir>`, `--trace <dir>`) and
    /// returns everything it did not recognise (binary-specific flags
    /// like the sweep's `--out`) in input order.
    ///
    /// `--seeds` accepts either a count (`--seeds 3` sweeps `seed`,
    /// `seed+1`, `seed+2`, regardless of flag order relative to
    /// `--seed`) or an explicit comma-separated list (`--seeds 7,9`).
    ///
    /// # Errors
    ///
    /// A shared flag with a missing or malformed value, a zero
    /// `--jobs`, or an empty or zero `--seeds`.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut out = Args::default();
        let mut seeds_spec: Option<String> = None;
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
            match a.as_str() {
                "--full" => out.full = true,
                "--seed" => {
                    out.seed = value("an integer")?
                        .parse()
                        .map_err(|_| "--seed needs an integer")?;
                }
                "--seeds" => seeds_spec = Some(value("a count or a,b,c list")?),
                "--jobs" => match value("a positive integer")?.parse() {
                    Ok(n) if n > 0 => out.jobs = Some(n),
                    _ => return Err("--jobs needs a positive integer".into()),
                },
                "--resume" => out.resume = Some(PathBuf::from(value("a directory")?)),
                "--trace" => out.trace = Some(PathBuf::from(value("a directory")?)),
                _ => rest.push(a),
            }
        }
        out.seeds = match seeds_spec {
            None => vec![out.seed],
            Some(spec) => parse_seed_spec(&spec, out.seed)?,
        };
        Ok((out, rest))
    }
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

/// Filesystem-safe form of a run slug: ASCII-lowercased with every
/// non-alphanumeric character folded to `-`.
pub fn sanitize_slug(slug: &str) -> String {
    slug.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// The `results/` directory at the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The reduced-scale input used by all training experiments.
pub const FAST_INPUT_RGB: (usize, usize, usize) = (3, 8, 8);
/// Reduced single-channel input (FEMNIST/Widar stand-ins).
pub const FAST_INPUT_GRAY: (usize, usize, usize) = (1, 8, 8);

/// SynCIFAR-10: the CIFAR-10 stand-in at experiment resolution.
pub fn syn_cifar10() -> SynthSpec {
    let mut s = SynthSpec::cifar10_like();
    s.input = FAST_INPUT_RGB;
    s
}

/// SynCIFAR-100 stand-in (100 classes). The generator is tuned so the
/// 100-class task separates methods within the reduced round budget
/// (the paper trains for ~500 rounds; we cannot).
pub fn syn_cifar100() -> SynthSpec {
    let mut s = SynthSpec::cifar100_like();
    s.input = FAST_INPUT_RGB;
    s.signal = 1.5;
    s.noise = 0.45;
    s.distortion = 0.30;
    s
}

/// SynFEMNIST stand-in (62 classes, writer groups), tuned like
/// [`syn_cifar100`] for the reduced round budget.
pub fn syn_femnist() -> SynthSpec {
    let mut s = SynthSpec::femnist_like();
    s.input = FAST_INPUT_GRAY;
    s.signal = 1.5;
    s.noise = 0.40;
    s
}

/// SynWidar stand-in (22 gestures, device groups), tuned to be
/// learnable at the reduced resolution.
pub fn syn_widar() -> SynthSpec {
    let mut s = SynthSpec::widar_like();
    s.input = FAST_INPUT_GRAY;
    s.signal = 1.6;
    s.group_shift = 0.5;
    s
}

/// The two reduced model families of the accuracy experiments,
/// matching the paper's VGG16 / ResNet18 line-up.
pub fn paper_models(
    classes: usize,
    input: (usize, usize, usize),
) -> [(&'static str, ModelConfig); 2] {
    [
        (
            "VGG16",
            ModelConfig {
                input,
                classes,
                ..ModelConfig::vgg16_fast(classes)
            },
        ),
        (
            "ResNet18",
            ModelConfig {
                input,
                classes,
                ..ModelConfig::resnet18_fast(classes)
            },
        ),
    ]
}

/// The standard experiment configuration: the paper's protocol (100
/// clients, 10 % participation, 4:3:3 fleet, uncertain resources) at
/// reduced scale; `full` raises rounds and data volume. `hard`
/// doubles the round budget for the many-class tasks (SynCIFAR-100,
/// SynFEMNIST), which need longer to separate methods.
pub fn experiment_cfg_for(model: ModelConfig, full: bool, seed: u64, hard: bool) -> SimConfig {
    let mut cfg = SimConfig::fast(model, seed);
    if full {
        cfg.rounds = if hard { 100 } else { 60 };
        cfg.samples_per_client = 50;
        cfg.test_samples = 600;
    } else {
        cfg.rounds = if hard { 40 } else { 28 };
        cfg.samples_per_client = if hard { 30 } else { 25 };
        cfg.test_samples = 300;
    }
    cfg.eval_every = cfg.rounds.div_ceil(4);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_fast_models() {
        let spec = syn_cifar10();
        let [(_, vgg), (_, resnet)] = paper_models(spec.classes, spec.input);
        assert_eq!(vgg.input, spec.input);
        assert_eq!(resnet.classes, spec.classes);
    }

    #[test]
    fn experiment_cfg_scales_with_full() {
        let spec = syn_cifar10();
        let [(_, m), _] = paper_models(spec.classes, spec.input);
        let fast = experiment_cfg_for(m, false, 1, false);
        let full = experiment_cfg_for(m, true, 1, true);
        assert!(full.rounds > fast.rounds);
        assert!(full.samples_per_client > fast.samples_per_client);
    }

    /// Parses `words`, panicking with the parser's message on an error.
    fn parse(words: &[&str]) -> (Args, Vec<String>) {
        Args::parse_from(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn args_defaults() {
        let (a, rest) = parse(&[]);
        assert_eq!(a, Args::default());
        assert_eq!(a.seeds, vec![2024]);
        assert!(rest.is_empty());
    }

    #[test]
    fn args_parse_all_shared_flags() {
        let (a, rest) = parse(&[
            "--full", "--seed", "7", "--seeds", "3", "--jobs", "4", "--resume", "/tmp/ck",
            "--trace", "/tmp/tr",
        ]);
        assert!(a.full);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seeds, vec![7, 8, 9]);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.resume.as_deref(), Some(std::path::Path::new("/tmp/ck")));
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("/tmp/tr")));
        assert!(rest.is_empty());
    }

    #[test]
    fn args_seeds_count_expands_from_seed_regardless_of_flag_order() {
        let (a, _) = parse(&["--seeds", "2", "--seed", "100"]);
        assert_eq!(a.seeds, vec![100, 101]);
        let (b, _) = parse(&["--seed", "100", "--seeds", "2"]);
        assert_eq!(b.seeds, vec![100, 101]);
    }

    #[test]
    fn args_seeds_explicit_list() {
        let (a, _) = parse(&["--seeds", "5,9,13"]);
        assert_eq!(a.seeds, vec![5, 9, 13]);
        let (b, _) = parse(&["--seeds", " 5, 9 ,13"]);
        assert_eq!(b.seeds, vec![5, 9, 13]);
    }

    #[test]
    fn args_unknown_flags_are_returned_in_order() {
        let (a, rest) = parse(&["--out", "/tmp/x", "--seed", "3", "--tiny"]);
        assert_eq!(a.seed, 3);
        assert_eq!(
            rest,
            vec!["--out".to_string(), "/tmp/x".into(), "--tiny".into()]
        );
    }

    #[test]
    #[should_panic(expected = "--seeds")]
    fn args_rejects_zero_seed_count() {
        parse(&["--seeds", "0"]);
    }

    #[test]
    #[should_panic(expected = "--jobs")]
    fn args_rejects_zero_jobs() {
        parse(&["--jobs", "0"]);
    }

    #[test]
    fn sanitize_slug_folds_to_filesystem_safe() {
        assert_eq!(
            sanitize_slug("table2/VGG16 SynCIFAR-10"),
            "table2-vgg16-syncifar-10"
        );
        assert_eq!(sanitize_slug("AdaptiveFL+Greed"), "adaptivefl-greed");
    }
}
