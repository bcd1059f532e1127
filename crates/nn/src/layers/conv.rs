//! 2-D convolution layer.

use adaptivefl_tensor::ops::{conv2d_backward, conv2d_forward, ConvGeometry};
use adaptivefl_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::{join_name, Layer, ParamKind, ParamVisitor, ParamVisitorMut};

/// A 2-D convolution with bias (NCHW, square kernel).
///
/// # Example
///
/// ```
/// use adaptivefl_nn::layers::Conv2d;
/// use adaptivefl_nn::layer::Layer;
/// use adaptivefl_tensor::{rng, Tensor};
///
/// let mut r = rng::seeded(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut r);
/// let y = conv.forward(Tensor::zeros(&[2, 3, 8, 8]), false);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    geo: ConvGeometry,
    cache: Option<ForwardCache>,
}

#[derive(Debug)]
struct ForwardCache {
    /// The minibatch's column matrix from `conv2d_forward`:
    /// `[c_in·L, n·oh·ow]` over the `L` taps that read the input at
    /// some output (all `k·k` unless the plane is small).
    cols: Tensor,
    in_shape: Vec<usize>,
}

impl Conv2d {
    /// Creates a convolution `in_c → out_c` with a `k×k` kernel,
    /// Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weight = init::kaiming_uniform(&[out_c, in_c, k, k], in_c * k * k, rng);
        Self::from_weight(weight, stride, pad)
    }

    /// Creates a convolution with the given `[out_c, in_c, k, k]`
    /// weight and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not a square 4-D kernel, or if `k == 0`
    /// or `stride == 0`.
    pub fn from_weight(weight: Tensor, stride: usize, pad: usize) -> Self {
        let &[out_c, _, k, kw] = weight.shape() else {
            panic!("conv weight must be [out_c, in_c, k, k]");
        };
        assert_eq!(k, kw, "conv kernel must be square");
        assert!(
            k > 0 && stride > 0,
            "conv kernel and stride must be positive"
        );
        Conv2d {
            dweight: Tensor::zeros(weight.shape()),
            dbias: Tensor::zeros(&[out_c]),
            bias: Tensor::zeros(&[out_c]),
            weight,
            geo: ConvGeometry {
                kh: k,
                kw: k,
                stride,
                pad,
            },
            cache: None,
        }
    }

    /// The convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> ConvGeometry {
        self.geo
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let in_shape = x.shape().to_vec();
        let (y, cols) = conv2d_forward(&x, &self.weight, &self.bias, self.geo);
        self.cache = train.then_some(ForwardCache { cols, in_shape });
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let cache = self.cache.take().expect("conv backward without forward");
        conv2d_backward(
            &dy,
            &self.weight,
            &cache.cols,
            &cache.in_shape,
            self.geo,
            &mut self.dweight,
            &mut self.dbias,
        )
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
    fn forward_shape_with_stride() {
        let mut r = rng::seeded(0);
        let mut conv = Conv2d::new(3, 16, 3, 2, 1, &mut r);
        let y = conv.forward(Tensor::zeros(&[1, 3, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 16, 4, 4]);
    }

    #[test]
    fn backward_accumulates_grads() {
        let mut r = rng::seeded(1);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut r);
        let x = init::normal(&[1, 2, 4, 4], 1.0, &mut r);
        let y = conv.forward(x.clone(), true);
        let _ = conv.backward(Tensor::ones(y.shape()));
        let g1 = conv.dweight.clone();
        assert!(g1.sq_norm() > 0.0);
        // Second pass accumulates (doubles for the same input).
        let y2 = conv.forward(x, true);
        let _ = conv.backward(Tensor::ones(y2.shape()));
        let g2 = conv.dweight.clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((b - 2.0 * a).abs() < 1e-4);
        }
        conv.zero_grads();
        assert_eq!(conv.dweight.sq_norm(), 0.0);
    }

    #[test]
    fn param_names_are_prefixed() {
        let mut r = rng::seeded(2);
        let conv = Conv2d::new(1, 1, 1, 1, 0, &mut r);
        let mut names = Vec::new();
        conv.visit_params(
            "block.0",
            &mut |n: &str, _: ParamKind, _: &Tensor, _: &Tensor| {
                names.push(n.to_string());
            },
        );
        assert_eq!(names, vec!["block.0.weight", "block.0.bias"]);
    }

    #[test]
    #[should_panic(expected = "conv kernel and stride must be positive")]
    fn zero_stride_panics() {
        Conv2d::new(1, 1, 3, 0, 1, &mut rng::seeded(4));
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut r = rng::seeded(3);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut r);
        conv.backward(Tensor::zeros(&[1, 1, 1, 1]));
    }
}
