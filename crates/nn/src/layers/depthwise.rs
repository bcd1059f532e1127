//! Depthwise 2-D convolution (one filter per channel), needed by
//! MobileNetV2's inverted residual blocks.

use adaptivefl_tensor::ops::{depthwise_backward, depthwise_forward, ConvGeometry};
use adaptivefl_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::{join_name, Layer, ParamKind, ParamVisitor, ParamVisitorMut};

/// Depthwise convolution: channel `c` of the output is the correlation
/// of channel `c` of the input with its own `k×k` filter. Weight shape
/// is `[c, 1, k, k]` so the channel axis is the leading axis, exactly
/// like a dense conv — which keeps prefix-slice width pruning uniform.
///
/// A thin layer over [`depthwise_forward`] and [`depthwise_backward`],
/// which walk the conv tap-run map: no tap is tested for padding, and
/// every sum keeps the order of a plain per-output loop, bit for bit
/// (DESIGN.md §10, "Per-channel layers"). `backward` adds onto the
/// gradients held here, each chain continuing from their value.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    geo: ConvGeometry,
    cache: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `c` channels with a `k×k`
    /// kernel, Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn new(c: usize, k: usize, stride: usize, pad: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_uniform(&[c, 1, k, k], k * k, rng);
        Self::from_weight(weight, stride, pad)
    }

    /// Creates a depthwise convolution with the given `[c, 1, k, k]`
    /// weight and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not one square kernel per channel, or
    /// if `k == 0` or `stride == 0`.
    pub fn from_weight(weight: Tensor, stride: usize, pad: usize) -> Self {
        let &[c, 1, k, kw] = weight.shape() else {
            panic!("depthwise weight must be [c, 1, k, k]");
        };
        assert_eq!(k, kw, "depthwise kernel must be square");
        assert!(
            k > 0 && stride > 0,
            "conv kernel and stride must be positive"
        );
        DepthwiseConv2d {
            dweight: Tensor::zeros(weight.shape()),
            weight,
            bias: Tensor::zeros(&[c]),
            dbias: Tensor::zeros(&[c]),
            geo: ConvGeometry {
                kh: k,
                kw: k,
                stride,
                pad,
            },
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.weight.shape()[0]
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = depthwise_forward(&x, &self.weight, &self.bias, self.geo);
        self.cache = train.then_some(x);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let x = self
            .cache
            .take()
            .expect("depthwise backward without forward");
        let (dw, db) = (&mut self.dweight, &mut self.dbias);
        depthwise_backward(&x, &dy, &self.weight, self.geo, dw, db)
    }

    fn visit_params(&self, prefix: &str, v: &mut dyn ParamVisitor) {
        v.visit(
            &join_name(prefix, "weight"),
            ParamKind::Weight,
            &self.weight,
            &self.dweight,
        );
        v.visit(
            &join_name(prefix, "bias"),
            ParamKind::Bias,
            &self.bias,
            &self.dbias,
        );
    }

    fn visit_params_mut(&mut self, prefix: &str, v: &mut dyn ParamVisitorMut) {
        v.visit(
            &join_name(prefix, "weight"),
            ParamKind::Weight,
            &mut self.weight,
            &mut self.dweight,
        );
        v.visit(
            &join_name(prefix, "bias"),
            ParamKind::Bias,
            &mut self.bias,
            &mut self.dbias,
        );
    }

    fn zero_grads(&mut self) {
        self.dweight.fill(0.0);
        self.dbias.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_tensor::rng;

    #[test]
    fn forward_is_per_channel() {
        let mut r = rng::seeded(30);
        let mut dw = DepthwiseConv2d::new(2, 1, 1, 0, &mut r);
        // 1x1 depthwise = per-channel scaling + bias.
        dw.weight = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1]);
        dw.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]);
        let y = dw.forward(x, false);
        assert_eq!(y.as_slice(), &[2.5, 2.5, 2.5, 2.5, 5.5, 5.5, 5.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng::seeded(31);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let x = init::normal(&[1, 2, 4, 4], 1.0, &mut r);
        let y = dw.forward(x.clone(), true);
        let dx = dw.backward(Tensor::ones(y.shape()));
        let eps = 1e-2f32;
        for idx in [0usize, 5, 9, 17] {
            let orig = dw.weight.as_slice()[idx];
            dw.weight.as_mut_slice()[idx] = orig + eps;
            let lp = dw.forward(x.clone(), false).sum();
            dw.weight.as_mut_slice()[idx] = orig - eps;
            let lm = dw.forward(x.clone(), false).sum();
            dw.weight.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw.dweight.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "{num} vs {ana}"
            );
        }
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (dw.forward(xp, false).sum() - dw.forward(xm, false).sum()) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()));
        }
    }

    #[test]
    #[should_panic(expected = "conv kernel and stride must be positive")]
    fn zero_kernel_panics() {
        DepthwiseConv2d::new(1, 0, 1, 0, &mut rng::seeded(35));
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_larger_than_padded_input_panics() {
        let mut r = rng::seeded(33);
        let mut dw = DepthwiseConv2d::new(1, 5, 1, 1, &mut r);
        dw.forward(Tensor::zeros(&[1, 1, 2, 2]), false);
    }

    #[test]
    #[should_panic(expected = "dy must be [n, c, oh, ow]")]
    fn backward_rejects_mismatched_dy() {
        let mut r = rng::seeded(34);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let _ = dw.forward(Tensor::zeros(&[1, 2, 4, 4]), true);
        dw.backward(Tensor::zeros(&[1, 2, 3, 3]));
    }

    #[test]
    #[should_panic(expected = "depthwise backward without forward")]
    fn eval_forward_drops_an_earlier_training_cache() {
        let mut r = rng::seeded(35);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let _ = dw.forward(Tensor::ones(&[1, 2, 4, 4]), true);
        let _ = dw.forward(Tensor::ones(&[1, 2, 4, 4]), false);
        dw.backward(Tensor::ones(&[1, 2, 4, 4]));
    }

    #[test]
    fn stride_two_halves_output() {
        let mut r = rng::seeded(32);
        let mut dw = DepthwiseConv2d::new(3, 3, 2, 1, &mut r);
        let y = dw.forward(Tensor::zeros(&[1, 3, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 3, 4, 4]);
    }
}
