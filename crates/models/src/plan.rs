//! Width and depth plans: how `(r_w, I)` becomes per-unit channel
//! counts.

use serde::{Deserialize, Serialize};

/// The paper's fine-grained pruning configuration: a width ratio `r_w`
/// and the index `I` of the last unit kept at full width (1-based, as in
/// the paper; `start_unit = 0` prunes every unit).
///
/// # Example
///
/// ```
/// use adaptivefl_models::PruneSpec;
///
/// let m1 = PruneSpec::new(0.66, 8);
/// assert_eq!(m1.scaled_width(512, 9), 338);
/// assert_eq!(m1.scaled_width(512, 8), 512); // unit 8 ≤ I stays full
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneSpec {
    /// Width ratio applied to units deeper than `start_unit`.
    pub r_w: f32,
    /// Units with 1-based index `≤ start_unit` keep full width
    /// (the paper's `I`).
    pub start_unit: usize,
}

impl PruneSpec {
    /// Creates a prune spec.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < r_w ≤ 1`.
    pub fn new(r_w: f32, start_unit: usize) -> Self {
        assert!(r_w > 0.0 && r_w <= 1.0, "r_w must be in (0, 1], got {r_w}");
        PruneSpec { r_w, start_unit }
    }

    /// The identity spec (full model, `r_w = 1`).
    pub fn full() -> Self {
        PruneSpec {
            r_w: 1.0,
            start_unit: 0,
        }
    }

    /// Returns `true` if this spec leaves the model unchanged.
    pub fn is_full(&self) -> bool {
        self.r_w >= 1.0
    }

    /// Channel count of a unit with base width `base` at 1-based index
    /// `unit`.
    pub fn scaled_width(&self, base: usize, unit: usize) -> usize {
        if unit <= self.start_unit || self.is_full() {
            base
        } else {
            scale_width(base, self.r_w)
        }
    }
}

/// Rounds a base width by a ratio, never below 1 channel.
pub fn scale_width(base: usize, ratio: f32) -> usize {
    (((base as f64) * (ratio as f64)).round() as usize).max(1)
}

/// Per-unit channel counts for one concrete submodel, derived from a
/// [`PruneSpec`] and the family's base widths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WidthPlan {
    channels: Vec<usize>,
}

impl WidthPlan {
    /// Builds a plan from base widths and a prune spec.
    pub fn from_spec(base: &[usize], spec: &PruneSpec) -> Self {
        WidthPlan {
            channels: base
                .iter()
                .enumerate()
                .map(|(i, &b)| spec.scaled_width(b, i + 1))
                .collect(),
        }
    }

    /// A full-width plan.
    pub fn full(base: &[usize]) -> Self {
        WidthPlan {
            channels: base.to_vec(),
        }
    }

    /// Channel count of the 0-based unit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn width(&self, i: usize) -> usize {
        self.channels[i]
    }

    /// All channel counts.
    pub fn channels(&self) -> &[usize] {
        &self.channels
    }

    /// Number of prunable units.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` if the plan has no units.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Elementwise `≤` against another plan — the nesting property that
    /// makes prefix-slice extraction and aggregation valid.
    pub fn nested_in(&self, other: &WidthPlan) -> bool {
        self.len() == other.len()
            && self
                .channels
                .iter()
                .zip(&other.channels)
                .all(|(&a, &b)| a <= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VGG_BASE: &[usize] = &[
        64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512, 4096, 4096,
    ];

    #[test]
    fn full_spec_keeps_everything() {
        let plan = WidthPlan::from_spec(VGG_BASE, &PruneSpec::full());
        assert_eq!(plan.channels(), VGG_BASE);
    }

    #[test]
    fn paper_m_level_widths() {
        // M-level: r_w = 0.66, I = 8 → units 9.. pruned.
        let plan = WidthPlan::from_spec(VGG_BASE, &PruneSpec::new(0.66, 8));
        assert_eq!(plan.width(7), 512); // unit 8 (1-based) kept
        assert_eq!(plan.width(8), 338); // unit 9 pruned
        assert_eq!(plan.width(13), 2703); // fc1 pruned
    }

    #[test]
    fn smaller_start_unit_prunes_more() {
        let p8 = WidthPlan::from_spec(VGG_BASE, &PruneSpec::new(0.4, 8));
        let p4 = WidthPlan::from_spec(VGG_BASE, &PruneSpec::new(0.4, 4));
        assert!(p4.nested_in(&p8));
        assert!(!p8.nested_in(&p4));
        let sum8: usize = p8.channels().iter().sum();
        let sum4: usize = p4.channels().iter().sum();
        assert!(sum4 < sum8);
    }

    #[test]
    fn nesting_across_levels() {
        let full = WidthPlan::full(VGG_BASE);
        let m = WidthPlan::from_spec(VGG_BASE, &PruneSpec::new(0.66, 8));
        let s = WidthPlan::from_spec(VGG_BASE, &PruneSpec::new(0.40, 8));
        assert!(s.nested_in(&m));
        assert!(m.nested_in(&full));
        assert!(s.nested_in(&full));
    }

    #[test]
    fn scale_width_never_zero() {
        assert_eq!(scale_width(1, 0.1), 1);
        assert_eq!(scale_width(512, 0.66), 338);
        assert_eq!(scale_width(512, 0.40), 205);
    }

    #[test]
    #[should_panic(expected = "r_w must be in")]
    fn rejects_zero_ratio() {
        PruneSpec::new(0.0, 0);
    }
}
