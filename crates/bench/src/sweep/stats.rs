//! Statistics primitives for the sweep: per-cell sample summaries
//! (mean / std / 95 % confidence interval) and the paired sign test
//! used by the verdict layer.
//!
//! Everything here is exactly permutation-invariant: samples are
//! sorted by [`f64::total_cmp`] before any floating-point reduction,
//! so reordering inputs can never change a digit of the output —
//! a property the proptests in `tests/stats_props.rs` pin down.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use super::record::CellRecord;

/// Two-sided t-distribution critical values at 95 % confidence for
/// `df = 1..=30`; larger df fall back to the normal 1.96.
const T_CRIT_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Two-sided 95 % t critical value for `df` degrees of freedom.
pub fn t_crit_95(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= T_CRIT_95.len() {
        T_CRIT_95[df - 1]
    } else {
        1.96
    }
}

/// Mean, sample standard deviation and 95 % confidence half-width of
/// a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Number of samples.
    pub n: usize,
    /// Sample mean (0 for an empty set).
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Half-width of the 95 % t confidence interval on the mean
    /// (0 for n ≤ 1 — a single sample asserts nothing).
    pub ci95: f64,
}

impl SampleStats {
    /// Summarises `samples`. Sorts a copy by total order first, so
    /// any permutation of the input produces bit-identical output.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n == 0 {
            return SampleStats {
                n: 0,
                mean: 0.0,
                std: 0.0,
                ci95: 0.0,
            };
        }
        // All-equal samples carry no spread; short-circuiting keeps
        // the mean exact instead of letting `sum / n` round it, and
        // also covers n == 1.
        if xs[0].to_bits() == xs[n - 1].to_bits() {
            return SampleStats {
                n,
                mean: xs[0],
                std: 0.0,
                ci95: 0.0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        let std = (ss / (n - 1) as f64).sqrt();
        let ci95 = t_crit_95(n - 1) * std / (n as f64).sqrt();
        SampleStats { n, mean, std, ci95 }
    }

    /// `"mean±ci"` with percent scaling, e.g. `"61.3±2.1"` — the
    /// column format of the sweep tables.
    pub fn pct_pm(&self) -> String {
        format!("{:.1}\u{b1}{:.1}", 100.0 * self.mean, 100.0 * self.ci95)
    }
}

/// Cross-seed summary of one cell — the row unit of the sweep tables
/// and of `stats.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Owning experiment.
    pub experiment: String,
    /// Cell identifier.
    pub slug: String,
    /// Comparison-panel key.
    pub group: String,
    /// Method display name.
    pub method: String,
    /// Experiment-specific axis label.
    pub variant: String,
    /// Seeds aggregated, sorted.
    pub seeds: Vec<u64>,
    /// Best full-model accuracy across seeds.
    pub best_full: SampleStats,
    /// Best mean-over-levels accuracy across seeds.
    pub best_avg: SampleStats,
    /// Communication-waste rate across seeds.
    pub comm_waste: SampleStats,
}

/// Aggregates records into one [`CellSummary`] per slug, sorted by
/// `(experiment, slug)`. Duplicate `(slug, seed)` records are a
/// caller bug (the sweep writes one file per job) and panic.
pub fn summarize_cells(records: &[CellRecord]) -> Vec<CellSummary> {
    let mut by_slug: BTreeMap<(&str, &str), Vec<&CellRecord>> = BTreeMap::new();
    for r in records {
        by_slug
            .entry((r.experiment.as_str(), r.slug.as_str()))
            .or_default()
            .push(r);
    }
    by_slug
        .into_values()
        .map(|mut group| {
            group.sort_by_key(|r| r.seed);
            let seeds: Vec<u64> = group.iter().map(|r| r.seed).collect();
            assert!(
                seeds.windows(2).all(|w| w[0] != w[1]),
                "duplicate seed for cell {}",
                group[0].slug
            );
            let col = |f: fn(&CellRecord) -> f64| {
                SampleStats::from_samples(&group.iter().map(|r| f(r)).collect::<Vec<_>>())
            };
            let first = group[0];
            CellSummary {
                experiment: first.experiment.clone(),
                slug: first.slug.clone(),
                group: first.group.clone(),
                method: first.method.clone(),
                variant: first.variant.clone(),
                seeds,
                best_full: col(|r| r.best_full),
                best_avg: col(|r| r.best_avg),
                comm_waste: col(|r| r.comm_waste),
            }
        })
        .collect()
}

/// Result of a paired (two-sided) sign test over per-seed differences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignTest {
    /// Pairs where the first sample won (difference > 0).
    pub wins: usize,
    /// Pairs where the first sample lost (difference < 0).
    pub losses: usize,
    /// Exact ties (excluded from the test, as is standard).
    pub ties: usize,
    /// Two-sided exact binomial p-value over the non-tied pairs;
    /// 1.0 when every pair tied (no evidence either way).
    pub p: f64,
}

impl SignTest {
    /// Runs the test on paired differences `a[i] - b[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths — pairing is by
    /// index, so a length mismatch is a caller bug.
    pub fn paired(a: &[f64], b: &[f64]) -> Self {
        assert_eq!(a.len(), b.len(), "sign test needs equal-length pairs");
        let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        SignTest::from_diffs(&diffs)
    }

    /// Runs the test on precomputed differences.
    pub fn from_diffs(diffs: &[f64]) -> Self {
        let wins = diffs.iter().filter(|d| **d > 0.0).count();
        let losses = diffs.iter().filter(|d| **d < 0.0).count();
        let ties = diffs.len() - wins - losses;
        let n = wins + losses;
        let p = if n == 0 {
            1.0
        } else {
            two_sided_binomial_p(wins.min(losses), n)
        };
        SignTest {
            wins,
            losses,
            ties,
            p,
        }
    }
}

/// Two-sided exact binomial p-value under `p = 1/2`:
/// `min(1, 2 · P[X ≤ k])` for `X ~ Binomial(n, 1/2)`.
fn two_sided_binomial_p(k: usize, n: usize) -> f64 {
    let tail: f64 = (0..=k).map(|i| binom_pmf_half(i, n)).sum();
    (2.0 * tail).min(1.0)
}

/// `P[X = k]` for `X ~ Binomial(n, 1/2)`, via log-space `C(n, k)` so
/// it stays finite for any practical `n`.
fn binom_pmf_half(k: usize, n: usize) -> f64 {
    (ln_choose(n, k) - n as f64 * std::f64::consts::LN_2).exp()
}

/// `ln C(n, k)` by direct summation of logs — exact enough for
/// p-values and dependency-free (no `ln_gamma` in a bare std build).
fn ln_choose(n: usize, k: usize) -> f64 {
    let k = k.min(n - k.min(n));
    (0..k)
        .map(|i| ((n - i) as f64).ln() - ((i + 1) as f64).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_are_degenerate() {
        let e = SampleStats::from_samples(&[]);
        assert_eq!((e.n, e.mean, e.std, e.ci95), (0, 0.0, 0.0, 0.0));
        let s = SampleStats::from_samples(&[0.7]);
        assert_eq!((s.n, s.mean, s.std, s.ci95), (1, 0.7, 0.0, 0.0));
    }

    #[test]
    fn known_stats_check_out() {
        // {1, 2, 3}: mean 2, std 1, ci = 4.303 / sqrt(3).
        let s = SampleStats::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 4.303 / 3.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn t_table_endpoints() {
        assert!((t_crit_95(1) - 12.706).abs() < 1e-9);
        assert!((t_crit_95(30) - 2.042).abs() < 1e-9);
        assert!((t_crit_95(31) - 1.96).abs() < 1e-9);
        assert!(t_crit_95(0).is_infinite());
    }

    #[test]
    fn formatting_scales() {
        let s = SampleStats::from_samples(&[0.612, 0.618, 0.609]);
        let txt = s.pct_pm();
        assert!(txt.starts_with("61."), "{txt}");
        assert!(txt.contains('\u{b1}'), "{txt}");
    }

    #[test]
    fn sign_test_counts_and_all_tied() {
        let t = SignTest::paired(&[1.0, 2.0, 3.0, 4.0], &[0.5, 2.5, 3.0, 1.0]);
        assert_eq!((t.wins, t.losses, t.ties), (2, 1, 1));
        let tied = SignTest::paired(&[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(tied.ties, 2);
        assert!((tied.p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sign_test_exact_small_cases() {
        // 5 wins / 0 losses: p = 2 * (1/2)^5 = 0.0625.
        let t = SignTest::from_diffs(&[1.0; 5]);
        assert!((t.p - 0.0625).abs() < 1e-12, "{}", t.p);
        // 8/0: p = 2/256 = 0.0078125 — significant at 0.05.
        let t8 = SignTest::from_diffs(&[1.0; 8]);
        assert!((t8.p - 2.0 / 256.0).abs() < 1e-12);
        // 3/1: p = 2 * (C(4,0)+C(4,1)) / 16 = 0.625.
        let t31 = SignTest::from_diffs(&[1.0, 1.0, 1.0, -1.0]);
        assert!((t31.p - 0.625).abs() < 1e-12, "{}", t31.p);
    }

    #[test]
    fn summaries_group_by_slug_sorted() {
        use crate::sweep::record::RECORD_VERSION;
        let rec = |slug: &str, seed: u64, best: f64| CellRecord {
            version: RECORD_VERSION,
            experiment: "fig3".into(),
            slug: slug.into(),
            group: "fig3".into(),
            method: "AdaptiveFL".into(),
            model: "M".into(),
            dataset: "D".into(),
            partition: "IID".into(),
            variant: String::new(),
            seed,
            best_full: best,
            best_avg: best,
            final_full: best,
            final_avg: best,
            comm_waste: 0.2,
            sim_secs: 1.0,
            levels: vec![],
            curve: vec![],
            fingerprint_fnv: 0,
        };
        let summaries = summarize_cells(&[
            rec("b", 2, 0.5),
            rec("a", 1, 0.4),
            rec("a", 2, 0.6),
            rec("b", 1, 0.5),
        ]);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].slug, "a");
        assert_eq!(summaries[0].seeds, vec![1, 2]);
        assert!((summaries[0].best_full.mean - 0.5).abs() < 1e-12);
        assert_eq!(summaries[1].best_full.n, 2);
        assert!((summaries[1].best_full.std - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ln_choose_matches_pascal() {
        for n in 0..15usize {
            for k in 0..=n {
                let exact: f64 = (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64);
                assert!(
                    (ln_choose(n, k).exp() - exact).abs() < 1e-6 * exact.max(1.0),
                    "C({n},{k})"
                );
            }
        }
    }
}
