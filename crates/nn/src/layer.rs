//! The [`Layer`] trait: forward, backward, and named-parameter visits.

use adaptivefl_tensor::Tensor;

use crate::param::ParamMap;

/// Semantic role of a parameter; used by the federated engine to decide
/// how a parameter participates in width slicing and aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Trainable weight matrix/kernel.
    Weight,
    /// Trainable bias vector.
    Bias,
    /// Trainable per-channel scale (batch-norm γ).
    Gamma,
    /// Trainable per-channel shift (batch-norm β).
    Beta,
    /// Non-trainable batch-norm running mean (aggregated, not SGD-updated).
    RunningMean,
    /// Non-trainable batch-norm running variance.
    RunningVar,
}

impl ParamKind {
    /// Whether SGD should update this parameter (running statistics are
    /// updated by the batch-norm layer itself).
    pub fn is_trainable(self) -> bool {
        !matches!(self, ParamKind::RunningMean | ParamKind::RunningVar)
    }
}

/// Read-only parameter visitor.
pub trait ParamVisitor {
    /// Called once per parameter with its full hierarchical name.
    fn visit(&mut self, name: &str, kind: ParamKind, value: &Tensor, grad: &Tensor);
}

/// Mutable parameter visitor (used by the optimizer and by weight
/// loading).
pub trait ParamVisitorMut {
    /// Called once per parameter with its full hierarchical name.
    fn visit(&mut self, name: &str, kind: ParamKind, value: &mut Tensor, grad: &mut Tensor);
}

impl<F: FnMut(&str, ParamKind, &Tensor, &Tensor)> ParamVisitor for F {
    fn visit(&mut self, name: &str, kind: ParamKind, value: &Tensor, grad: &Tensor) {
        self(name, kind, value, grad)
    }
}

impl<F: FnMut(&str, ParamKind, &mut Tensor, &mut Tensor)> ParamVisitorMut for F {
    fn visit(&mut self, name: &str, kind: ParamKind, value: &mut Tensor, grad: &mut Tensor) {
        self(name, kind, value, grad)
    }
}

/// A differentiable network module.
///
/// `forward(x, true)` must cache whatever the matching `backward`
/// needs; `backward` accumulates parameter gradients (it does **not**
/// zero them) and returns the gradient w.r.t. the input.
///
/// `forward(x, false)` is the sBN inference pass (DESIGN.md §7): the
/// output of `forward(x, true)`, bit for bit, but it caches nothing,
/// drops any training cache an earlier forward left, and changes no
/// state (BatchNorm normalises with batch statistics and leaves its
/// running statistics alone).
pub trait Layer: Send {
    /// Runs the layer on `x`. `train` selects a training pass (caching
    /// for backward, BatchNorm running-statistics updates) over an
    /// inference pass.
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor;

    /// Back-propagates `dy` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients, and returns the gradient
    /// w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// Panics if the last `forward` was an inference pass, or if there
    /// was none.
    fn backward(&mut self, dy: Tensor) -> Tensor;

    /// Visits every parameter, prefixing names with `prefix`.
    fn visit_params(&self, prefix: &str, v: &mut dyn ParamVisitor);

    /// Visits every parameter mutably, prefixing names with `prefix`.
    fn visit_params_mut(&mut self, prefix: &str, v: &mut dyn ParamVisitorMut);

    /// Sets all parameter gradients to zero.
    fn zero_grads(&mut self);
}

/// Extension helpers available on every `Layer`.
pub trait LayerExt: Layer {
    /// Snapshots all parameter values into a [`ParamMap`].
    fn param_map(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.visit_params(
            "",
            &mut |name: &str, _kind: ParamKind, value: &Tensor, _grad: &Tensor| {
                map.insert(name, value.clone());
            },
        );
        map
    }

    /// [`LayerExt::param_map`] without the copies: consumes the layer
    /// and moves every parameter tensor into the map.
    fn into_param_map(mut self) -> ParamMap
    where
        Self: Sized,
    {
        let mut map = ParamMap::new();
        self.visit_params_mut(
            "",
            &mut |name: &str, _kind: ParamKind, value: &mut Tensor, _grad: &mut Tensor| {
                map.insert(name, std::mem::replace(value, Tensor::zeros(&[0])));
            },
        );
        map
    }

    /// Loads parameter values from a [`ParamMap`].
    ///
    /// # Panics
    ///
    /// Panics if a parameter is missing from the map or has the wrong
    /// shape — loading is all-or-nothing by design so silent partial
    /// loads cannot corrupt an experiment.
    fn load_param_map(&mut self, map: &ParamMap) {
        self.visit_params_mut(
            "",
            &mut |name: &str, _kind: ParamKind, value: &mut Tensor, _grad: &mut Tensor| {
                let src = map
                    .get(name)
                    .unwrap_or_else(|| panic!("parameter {name} missing from map"));
                assert_eq!(
                    src.shape(),
                    value.shape(),
                    "parameter {name} shape mismatch"
                );
                *value = src.clone();
            },
        );
    }

    /// Total number of parameter elements.
    fn num_params(&self) -> usize {
        let mut n = 0usize;
        self.visit_params("", &mut |_: &str,
                                    _: ParamKind,
                                    value: &Tensor,
                                    _: &Tensor| {
            n += value.numel();
        });
        n
    }
}

impl<L: Layer + ?Sized> LayerExt for L {}

/// Joins a name prefix and a local parameter/child name.
pub fn join_name(prefix: &str, local: &str) -> String {
    if prefix.is_empty() {
        local.to_string()
    } else {
        format!("{prefix}.{local}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{
        BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
    };
    use adaptivefl_tensor::{init, rng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every leaf layer: an eval forward drops the cache an earlier
    /// training forward left, so a following `backward` panics.
    #[test]
    fn backward_after_an_eval_forward_panics() {
        let mut r = rng::seeded(9);
        let image = init::normal(&[2, 3, 4, 4], 1.0, &mut r);
        let rows = init::normal(&[2, 5], 1.0, &mut r);
        let cases: Vec<(&str, Box<dyn Layer>, &Tensor)> = vec![
            ("conv", Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut r)), &image),
            (
                "depthwise",
                Box::new(DepthwiseConv2d::new(3, 3, 1, 1, &mut r)),
                &image,
            ),
            ("batchnorm", Box::new(BatchNorm2d::new(3)), &image),
            ("linear", Box::new(Linear::new(5, 2, &mut r)), &rows),
            ("relu", Box::new(Relu::new()), &image),
            ("maxpool", Box::new(MaxPool2d::new(2)), &image),
            ("gap", Box::new(GlobalAvgPool::new()), &image),
            ("flatten", Box::new(Flatten::new()), &image),
        ];
        for (what, mut layer, x) in cases {
            let _ = layer.forward(x.clone(), true);
            let y = layer.forward(x.clone(), false);
            let dy = Tensor::ones(y.shape());
            let backward = catch_unwind(AssertUnwindSafe(|| layer.backward(dy)));
            assert!(
                backward.is_err(),
                "{what}: backward after an eval forward must panic"
            );
        }
    }

    #[test]
    fn into_param_map_moves_what_param_map_copies() {
        let mut r = rng::seeded(10);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut r);
        let copied = conv.param_map();
        assert_eq!(conv.into_param_map(), copied);
    }

    #[test]
    fn join_name_handles_empty_prefix() {
        assert_eq!(join_name("", "weight"), "weight");
        assert_eq!(join_name("features.0", "weight"), "features.0.weight");
    }

    #[test]
    fn param_kind_trainability() {
        assert!(ParamKind::Weight.is_trainable());
        assert!(ParamKind::Gamma.is_trainable());
        assert!(!ParamKind::RunningMean.is_trainable());
        assert!(!ParamKind::RunningVar.is_trainable());
    }
}
