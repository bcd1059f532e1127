//! Experiment harness for the paper's tables and figures.
//!
//! Every experiment's grid of runs is data in [`sweep::grids`]. The
//! `sweep` binary runs any subset of the grids as `cells × seeds`
//! isolated jobs and writes one record per job under
//! `results/sweep/<slug>/<seed>.json`; those records are the only run
//! output. `summarize` renders them into `results/SUMMARY.md` through
//! [`sweep::report`], and `table1` prints the analytic Table 1.
//!
//! The default fast mode is calibrated for a single CPU core; the
//! `sweep` binary's own docs list its flags.

#![forbid(unsafe_code)]

pub mod sweep;

use std::fs;
use std::path::PathBuf;

use adaptivefl_core::sim::SimConfig;
use adaptivefl_data::SynthSpec;
use adaptivefl_models::ModelConfig;

/// Rounds between checkpoints when `--resume` is active.
pub const CHECKPOINT_EVERY: usize = 5;

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

    #[test]
    fn sanitize_slug_folds_to_filesystem_safe() {
        assert_eq!(
            sanitize_slug("table2/VGG16 SynCIFAR-10"),
            "table2-vgg16-syncifar-10"
        );
        assert_eq!(sanitize_slug("AdaptiveFL+Greed"), "adaptivefl-greed");
    }
}
