//! Fully connected layer.

use adaptivefl_tensor::ops::{matmul_a_bt, transpose};
use adaptivefl_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::{join_name, Layer, ParamKind, ParamVisitor, ParamVisitorMut};

/// A fully connected layer `y = x · Wᵀ + b` with weight `[out, in]`.
///
/// # Example
///
/// ```
/// use adaptivefl_nn::layers::Linear;
/// use adaptivefl_nn::layer::Layer;
/// use adaptivefl_tensor::{rng, Tensor};
///
/// let mut r = rng::seeded(0);
/// let mut fc = Linear::new(10, 4, &mut r);
/// let y = fc.forward(Tensor::zeros(&[5, 10]), false);
/// assert_eq!(y.shape(), &[5, 4]);
/// ```
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a layer `in_f → out_f` with Kaiming-uniform weights and
    /// zero bias.
    pub fn new(in_f: usize, out_f: usize, rng: &mut impl Rng) -> Self {
        Self::from_weight(init::kaiming_uniform(&[out_f, in_f], in_f, rng))
    }

    /// Creates a layer with the given `[out_f, in_f]` weight and zero
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not a matrix.
    pub fn from_weight(weight: Tensor) -> Self {
        let &[out_f, _] = weight.shape() else {
            panic!("linear weight must be [out_f, in_f]");
        };
        Linear {
            dweight: Tensor::zeros(weight.shape()),
            weight,
            bias: Tensor::zeros(&[out_f]),
            dbias: Tensor::zeros(&[out_f]),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects [batch, features]");
        assert_eq!(
            x.shape()[1],
            self.in_features(),
            "Linear input width mismatch"
        );
        // y = x · Wᵀ
        let mut y = matmul_a_bt(&x, &self.weight);
        let (n, o) = (y.shape()[0], y.shape()[1]);
        let b = self.bias.as_slice();
        let yv = y.as_mut_slice();
        for r in 0..n {
            for c in 0..o {
                yv[r * o + c] += b[c];
            }
        }
        self.cache = train.then_some(x);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let x = self.cache.take().expect("linear backward without forward");
        // dW = dyᵀ · x ; dx = dy · W ; db = column sums of dy.
        let dw = transpose(&dy).matmul(&x);
        self.dweight.add_assign(&dw);
        let (n, o) = (dy.shape()[0], dy.shape()[1]);
        let dyv = dy.as_slice();
        let dbv = self.dbias.as_mut_slice();
        for r in 0..n {
            for c in 0..o {
                dbv[c] += dyv[r * o + c];
            }
        }
        dy.matmul(&self.weight)
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
    fn gradients_match_finite_differences() {
        let mut r = rng::seeded(4);
        let mut fc = Linear::new(3, 2, &mut r);
        let x = init::normal(&[4, 3], 1.0, &mut r);
        let y = fc.forward(x.clone(), true);
        let dx = fc.backward(Tensor::ones(y.shape()));

        let eps = 1e-2f32;
        let loss = |fc: &mut Linear, x: &Tensor| fc.forward(x.clone(), false).sum();
        // Weight grads.
        for idx in 0..6 {
            let orig = fc.weight.as_slice()[idx];
            fc.weight.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut fc, &x);
            fc.weight.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut fc, &x);
            fc.weight.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = fc.dweight.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.02 * (1.0 + ana.abs()),
                "{num} vs {ana}"
            );
        }
        // Input grads.
        for idx in 0..12 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut fc, &xp) - loss(&mut fc, &xm)) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!((num - ana).abs() < 0.02 * (1.0 + ana.abs()));
        }
        // Bias grad = batch size for sum loss.
        assert!(fc.dbias.as_slice().iter().all(|&g| (g - 4.0).abs() < 1e-4));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_input_width() {
        let mut r = rng::seeded(5);
        let mut fc = Linear::new(3, 2, &mut r);
        fc.forward(Tensor::zeros(&[1, 4]), false);
    }
}
