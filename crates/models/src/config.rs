//! [`ModelConfig`] — one handle over a model family, its input shape
//! and class count, with optional width scaling for CPU-budget
//! experiments.

use adaptivefl_nn::ParamKind;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::block::Blueprint;
use crate::cost::{cost_of, Cost};
use crate::families;
use crate::network::Network;
use crate::plan::{scale_width, PruneSpec, WidthPlan};

/// The architecture families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// VGG16 with the CIFAR classifier of Table 1.
    Vgg16,
    /// ResNet18 (CIFAR stem).
    ResNet18,
    /// MobileNetV2 (test-bed experiment).
    MobileNetV2,
    /// Fast four-conv CNN for reduced-scale runs.
    TinyCnn,
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelKind::Vgg16 => "VGG16",
            ModelKind::ResNet18 => "ResNet18",
            ModelKind::MobileNetV2 => "MobileNetV2",
            ModelKind::TinyCnn => "TinyCnn",
        };
        f.write_str(s)
    }
}

/// A fully specified model: family, input shape, classes and width
/// multiplier.
///
/// # Example
///
/// ```
/// use adaptivefl_models::{ModelConfig, PruneSpec};
///
/// let cfg = ModelConfig::resnet18_fast(10);
/// let plan = cfg.plan(&PruneSpec::new(0.5, 2));
/// assert_eq!(plan.len(), cfg.num_units());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Architecture family.
    pub kind: ModelKind,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Number of output classes.
    pub classes: usize,
    /// Uniform width multiplier applied to the family's base widths
    /// (1.0 = the paper's full-size architecture).
    pub width_mult: f32,
}

impl ModelConfig {
    /// Full-size VGG16 on 32×32×3 input, 10 classes (Table 1).
    pub fn vgg16_cifar() -> Self {
        ModelConfig {
            kind: ModelKind::Vgg16,
            input: (3, 32, 32),
            classes: 10,
            width_mult: 1.0,
        }
    }

    /// Reduced VGG16 for CPU-budget training runs.
    pub fn vgg16_fast(classes: usize) -> Self {
        ModelConfig {
            kind: ModelKind::Vgg16,
            input: (3, 8, 8),
            classes,
            width_mult: 1.0 / 8.0,
        }
    }

    /// Reduced ResNet18 for CPU-budget training runs.
    pub fn resnet18_fast(classes: usize) -> Self {
        ModelConfig {
            kind: ModelKind::ResNet18,
            input: (3, 8, 8),
            classes,
            width_mult: 1.0 / 8.0,
        }
    }

    /// Reduced MobileNetV2 for CPU-budget training runs.
    pub fn mobilenet_v2_fast(classes: usize) -> Self {
        ModelConfig {
            kind: ModelKind::MobileNetV2,
            input: (1, 8, 8),
            classes,
            width_mult: 0.25,
        }
    }

    /// TinyCnn on 16×16×3 input.
    pub fn tiny(classes: usize) -> Self {
        ModelConfig {
            kind: ModelKind::TinyCnn,
            input: (3, 16, 16),
            classes,
            width_mult: 1.0,
        }
    }

    /// Base widths of every prunable unit after applying `width_mult`.
    pub fn base_widths(&self) -> Vec<usize> {
        let base: &[usize] = match self.kind {
            ModelKind::Vgg16 => &families::vgg::BASE_WIDTHS,
            ModelKind::ResNet18 => &families::resnet::BASE_WIDTHS,
            ModelKind::MobileNetV2 => &families::mobilenet::BASE_WIDTHS,
            ModelKind::TinyCnn => &families::tiny::BASE_WIDTHS,
        };
        if (self.width_mult - 1.0).abs() < f32::EPSILON {
            base.to_vec()
        } else {
            base.iter()
                .map(|&b| scale_width(b, self.width_mult))
                .collect()
        }
    }

    /// Number of prunable units (the range of the paper's `I`).
    pub fn num_units(&self) -> usize {
        self.base_widths().len()
    }

    /// The valid values of the starting prune unit `I`, ascending.
    ///
    /// Two constraints apply: the paper's threshold `τ` (shallow layers
    /// are never pruned), and — for residual families — the unit after
    /// `I` must start at a block that already carries a projection
    /// shortcut in the full model (a stage-transition block), so that a
    /// width boundary never introduces parameters absent from the
    /// global model.
    pub fn allowed_start_units(&self) -> Vec<usize> {
        match self.kind {
            // Plain feed-forward stacks: any unit from τ up to the
            // second-to-last (starting at the last unit would be a
            // no-op duplicate of L_1).
            ModelKind::Vgg16 => (4..self.num_units()).collect(),
            ModelKind::TinyCnn => (1..self.num_units()).collect(),
            // Units 4/6/8 are the stride-2 stage-transition blocks, so
            // the boundary block after I ∈ {3,5,7} has a `down`
            // projection in the full model.
            ModelKind::ResNet18 => vec![3, 5, 7],
            // Units 5/8/12/15/18 are blocks whose in/out channels (or
            // stride) differ in the full model.
            ModelKind::MobileNetV2 => vec![4, 7, 11, 14, 17],
        }
    }

    /// The threshold `τ`: the smallest allowed starting prune unit, so
    /// shallow layers are never pruned (paper §3.2).
    pub fn min_start_unit(&self) -> usize {
        self.allowed_start_units()[0]
    }

    /// Maximum trunk depth (number of segments).
    pub fn max_depth(&self) -> usize {
        match self.kind {
            ModelKind::Vgg16 => families::vgg::MAX_DEPTH,
            ModelKind::ResNet18 => families::resnet::MAX_DEPTH,
            ModelKind::MobileNetV2 => families::mobilenet::MAX_DEPTH,
            ModelKind::TinyCnn => families::tiny::MAX_DEPTH,
        }
    }

    /// Derives a width plan from a prune spec.
    pub fn plan(&self, spec: &PruneSpec) -> WidthPlan {
        WidthPlan::from_spec(&self.base_widths(), spec)
    }

    /// The full-width plan.
    pub fn full_plan(&self) -> WidthPlan {
        WidthPlan::full(&self.base_widths())
    }

    /// Builds the blueprint for a width plan at the given depth.
    ///
    /// # Panics
    ///
    /// Panics if the plan length or depth does not fit the family.
    pub fn blueprint(&self, plan: &WidthPlan, depth: usize, aux_exits: bool) -> Blueprint {
        match self.kind {
            ModelKind::Vgg16 => {
                // The paper's Table 1 parameter counts correspond to a
                // BN-free VGG16, so the full-size config stays BN-free;
                // reduced-width training variants get batch-norm, which
                // a 13-conv stack needs to train at small width.
                let bn = self.width_mult < 1.0;
                families::vgg16(self.input, self.classes, plan, depth, aux_exits, bn)
            }
            ModelKind::ResNet18 => {
                families::resnet18(self.input, self.classes, plan, depth, aux_exits)
            }
            ModelKind::MobileNetV2 => {
                families::mobilenet_v2(self.input, self.classes, plan, depth, aux_exits)
            }
            ModelKind::TinyCnn => {
                families::tiny_cnn(self.input, self.classes, plan, depth, aux_exits)
            }
        }
    }

    /// Full-depth blueprint without auxiliary exits.
    pub fn full_blueprint(&self, plan: &WidthPlan) -> Blueprint {
        self.blueprint(plan, self.max_depth(), false)
    }

    /// Instantiates an executable network for a plan (full depth, no
    /// aux exits).
    pub fn build(&self, plan: &WidthPlan, rng: &mut impl Rng) -> Network {
        Network::build(&self.full_blueprint(plan), rng)
    }

    /// Exact cost (params + MACs) of a plan at full depth.
    pub fn cost(&self, plan: &WidthPlan) -> Cost {
        cost_of(&self.full_blueprint(plan), self.input)
    }

    /// Parameter-element count of a plan at full depth.
    pub fn num_params(&self, plan: &WidthPlan) -> u64 {
        self.cost(plan).params
    }

    /// Parameter shape table of a plan at full depth (no aux exits).
    pub fn shapes(&self, plan: &WidthPlan) -> Vec<(String, Vec<usize>, ParamKind)> {
        self.full_blueprint(plan).shapes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_configs_are_actually_small() {
        for cfg in [
            ModelConfig::vgg16_fast(10),
            ModelConfig::resnet18_fast(10),
            ModelConfig::mobilenet_v2_fast(10),
            ModelConfig::tiny(10),
        ] {
            let n = cfg.num_params(&cfg.full_plan());
            assert!(n < 600_000, "{:?} has {n} params", cfg.kind);
        }
    }

    #[test]
    fn plan_length_matches_units() {
        let cfg = ModelConfig::vgg16_cifar();
        assert_eq!(cfg.num_units(), 15);
        assert_eq!(cfg.plan(&PruneSpec::full()).len(), 15);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::Vgg16.to_string(), "VGG16");
        assert_eq!(ModelKind::TinyCnn.to_string(), "TinyCnn");
    }
}
