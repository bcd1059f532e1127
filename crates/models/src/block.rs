//! Architecture blueprints: named block specifications from which both
//! the executable network and the parameter shape table are derived.

use adaptivefl_nn::ParamKind;
use serde::{Deserialize, Serialize};

/// Specification of a convolution (optionally followed by batch-norm
/// and ReLU, the ubiquitous conv-bn-relu unit).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Absolute parameter-name prefix, e.g. `"features.3"`.
    pub name: String,
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Whether a batch-norm follows the convolution.
    pub bn: bool,
    /// Whether a ReLU follows.
    pub relu: bool,
    /// Depthwise convolution (one filter per channel; requires
    /// `in_c == out_c`, weight shape `[c, 1, k, k]`).
    #[serde(default)]
    pub depthwise: bool,
}

impl ConvSpec {
    /// Convenience constructor for a dense conv-bn-relu unit.
    #[allow(clippy::too_many_arguments)] // mirrors the conv hyper-parameter list
    pub fn dense(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bn: bool,
        relu: bool,
    ) -> Self {
        ConvSpec {
            name: name.into(),
            in_c,
            out_c,
            k,
            stride,
            pad,
            bn,
            relu,
            depthwise: false,
        }
    }

    /// Convenience constructor for a depthwise conv-bn-relu unit.
    pub fn depthwise(
        name: impl Into<String>,
        c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bn: bool,
        relu: bool,
    ) -> Self {
        ConvSpec {
            name: name.into(),
            in_c: c,
            out_c: c,
            k,
            stride,
            pad,
            bn,
            relu,
            depthwise: true,
        }
    }

    /// Number of weight elements (excludes bias and BN).
    fn weight_numel(&self) -> usize {
        if self.depthwise {
            self.out_c * self.k * self.k
        } else {
            self.out_c * self.in_c * self.k * self.k
        }
    }

    /// Parameter count of this spec (conv weight+bias, plus BN γ/β and
    /// running stats when present; running stats are counted because
    /// they are transmitted in federated exchange).
    pub fn num_params(&self) -> usize {
        let conv = self.weight_numel() + self.out_c;
        let bn = if self.bn { 4 * self.out_c } else { 0 };
        conv + bn
    }
}

/// Specification of a fully connected layer (optionally with ReLU).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearSpec {
    /// Absolute parameter-name prefix, e.g. `"classifier.0"`.
    pub name: String,
    /// Input features.
    pub in_f: usize,
    /// Output features.
    pub out_f: usize,
    /// Whether a ReLU follows.
    pub relu: bool,
}

impl LinearSpec {
    /// Parameter count (weight + bias).
    pub fn num_params(&self) -> usize {
        self.out_f * self.in_f + self.out_f
    }
}

/// One architectural block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Block {
    /// Convolution (with optional BN/ReLU).
    Conv(ConvSpec),
    /// Fully connected layer.
    Linear(LinearSpec),
    /// Max pooling with the given window (= stride).
    MaxPool(usize),
    /// Global average pooling to `[n, c]`.
    GlobalAvgPool,
    /// Flatten to `[n, features]`.
    Flatten,
    /// Residual block: `relu(main(x) + shortcut(x))`, where the
    /// shortcut is identity when `None`.
    Residual {
        /// The main (residual) path.
        main: Vec<Block>,
        /// Optional projection shortcut (1×1 conv, used when channel
        /// counts or stride change).
        shortcut: Option<Vec<Block>>,
    },
    /// Additive skip without trailing ReLU (MobileNetV2-style linear
    /// bottleneck); identity shortcut only.
    LinearResidual {
        /// The main (bottleneck) path.
        main: Vec<Block>,
    },
}

impl Block {
    /// Visits every `(name, shape, kind)` parameter of this block.
    pub fn visit_shapes(&self, f: &mut impl FnMut(String, Vec<usize>, ParamKind)) {
        match self {
            Block::Conv(c) => {
                let w_shape = if c.depthwise {
                    vec![c.out_c, 1, c.k, c.k]
                } else {
                    vec![c.out_c, c.in_c, c.k, c.k]
                };
                f(format!("{}.weight", c.name), w_shape, ParamKind::Weight);
                f(format!("{}.bias", c.name), vec![c.out_c], ParamKind::Bias);
                if c.bn {
                    f(
                        format!("{}.bn.gamma", c.name),
                        vec![c.out_c],
                        ParamKind::Gamma,
                    );
                    f(
                        format!("{}.bn.beta", c.name),
                        vec![c.out_c],
                        ParamKind::Beta,
                    );
                    f(
                        format!("{}.bn.running_mean", c.name),
                        vec![c.out_c],
                        ParamKind::RunningMean,
                    );
                    f(
                        format!("{}.bn.running_var", c.name),
                        vec![c.out_c],
                        ParamKind::RunningVar,
                    );
                }
            }
            Block::Linear(l) => {
                f(
                    format!("{}.weight", l.name),
                    vec![l.out_f, l.in_f],
                    ParamKind::Weight,
                );
                f(format!("{}.bias", l.name), vec![l.out_f], ParamKind::Bias);
            }
            Block::Residual { main, shortcut } => {
                for b in main {
                    b.visit_shapes(f);
                }
                if let Some(sc) = shortcut {
                    for b in sc {
                        b.visit_shapes(f);
                    }
                }
            }
            Block::LinearResidual { main } => {
                for b in main {
                    b.visit_shapes(f);
                }
            }
            Block::MaxPool(_) | Block::GlobalAvgPool | Block::Flatten => {}
        }
    }
}

/// A complete architecture: trunk segments with an exit head attached
/// after each segment. The exit after the last kept segment is the
/// model's classifier; earlier exits exist only in ScaleFL-style
/// multi-exit submodels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blueprint {
    /// Trunk segments, executed in order.
    pub segments: Vec<Vec<Block>>,
    /// `exits[i]` is the classifier head attached after `segments[i]`.
    /// Must have the same length as `segments`; entries for segments
    /// without a usable exit are empty and must not be selected.
    pub exits: Vec<Vec<Block>>,
    /// Which exits are actually instantiated in this model (always
    /// includes the last kept segment).
    pub active_exits: Vec<usize>,
}

impl Blueprint {
    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if exit bookkeeping is inconsistent.
    pub fn validate(&self) {
        assert_eq!(self.segments.len(), self.exits.len(), "exit per segment");
        assert!(!self.segments.is_empty(), "blueprint needs segments");
        assert!(!self.active_exits.is_empty(), "blueprint needs an exit");
        for &e in &self.active_exits {
            assert!(e < self.segments.len(), "active exit {e} out of range");
            assert!(!self.exits[e].is_empty(), "active exit {e} has no head");
        }
        let last = *self.active_exits.iter().max().expect("non-empty");
        assert_eq!(
            last,
            self.segments.len() - 1,
            "final exit must follow the last segment"
        );
    }

    /// Visits every `(name, shape, kind)` parameter of the whole model
    /// (trunk segments plus the active exits), in definition order.
    pub fn visit_shapes(&self, f: &mut impl FnMut(String, Vec<usize>, ParamKind)) {
        for seg in &self.segments {
            for b in seg {
                b.visit_shapes(f);
            }
        }
        for &e in &self.active_exits {
            for b in &self.exits[e] {
                b.visit_shapes(f);
            }
        }
    }

    /// Collects the parameter shape table.
    pub fn shapes(&self) -> Vec<(String, Vec<usize>, ParamKind)> {
        let mut out = Vec::new();
        self.visit_shapes(&mut |n, s, k| out.push((n, s, k)));
        out
    }

    /// Total parameter elements (including BN running statistics, which
    /// are part of the transmitted model).
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_shapes(&mut |_, s, _| n += s.iter().product::<usize>());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, in_c: usize, out_c: usize, bn: bool) -> Block {
        Block::Conv(ConvSpec::dense(name, in_c, out_c, 3, 1, 1, bn, true))
    }

    #[test]
    fn conv_param_count() {
        if let Block::Conv(c) = conv("c", 3, 8, true) {
            assert_eq!(c.num_params(), 8 * 3 * 9 + 8 + 4 * 8);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn shapes_include_bn_stats() {
        let b = conv("features.0", 3, 4, true);
        let mut names = Vec::new();
        b.visit_shapes(&mut |n, _, _| names.push(n));
        assert_eq!(
            names,
            vec![
                "features.0.weight",
                "features.0.bias",
                "features.0.bn.gamma",
                "features.0.bn.beta",
                "features.0.bn.running_mean",
                "features.0.bn.running_var",
            ]
        );
    }

    #[test]
    fn residual_recurses_into_shortcut() {
        let b = Block::Residual {
            main: vec![conv("m.0", 4, 8, false)],
            shortcut: Some(vec![conv("sc", 4, 8, false)]),
        };
        let mut count = 0;
        b.visit_shapes(&mut |_, _, _| count += 1);
        assert_eq!(count, 4); // two convs × (weight, bias)
    }

    #[test]
    #[should_panic(expected = "final exit")]
    fn blueprint_requires_final_exit() {
        let bp = Blueprint {
            segments: vec![vec![conv("a", 3, 4, false)], vec![conv("b", 4, 4, false)]],
            exits: vec![
                vec![Block::Linear(LinearSpec {
                    name: "exit0".into(),
                    in_f: 4,
                    out_f: 10,
                    relu: false,
                })],
                vec![],
            ],
            active_exits: vec![0],
        };
        bp.validate();
    }
}
