//! ReLU activation.

use adaptivefl_tensor::Tensor;

use crate::layer::{Layer, ParamVisitor, ParamVisitorMut};

/// Elementwise rectified linear unit.
///
/// The activation is applied in place on the input the layer owns; the
/// training-mode mask buffer is kept between calls.
///
/// # Example
///
/// ```
/// use adaptivefl_nn::layers::Relu;
/// use adaptivefl_nn::layer::Layer;
/// use adaptivefl_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let y = relu.forward(Tensor::from_vec(vec![-1.0, 2.0], &[2]), false);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    /// `x > 0` per element of the last training forward pass.
    mask: Vec<bool>,
    /// Whether `mask` belongs to a forward pass not yet consumed by
    /// `backward`.
    armed: bool,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if train {
            self.mask.clear();
            self.mask.extend(x.as_slice().iter().map(|&v| v > 0.0));
        }
        self.armed = train;
        x.map_inplace(|v| v.max(0.0));
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        assert!(
            std::mem::take(&mut self.armed),
            "relu backward without forward"
        );
        assert_eq!(self.mask.len(), dy.numel(), "relu mask size mismatch");
        for (v, &m) in dy.as_mut_slice().iter_mut().zip(&self.mask) {
            *v = if m { *v } else { 0.0 };
        }
        dy
    }

    fn visit_params(&self, _prefix: &str, _v: &mut dyn ParamVisitor) {}
    fn visit_params_mut(&mut self, _prefix: &str, _v: &mut dyn ParamVisitorMut) {}
    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_masks_negative_inputs() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]);
        let _ = relu.forward(x, true);
        let dx = relu.backward(Tensor::ones(&[4]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "relu backward without forward")]
    fn eval_forward_disarms_an_earlier_training_forward() {
        let mut relu = Relu::new();
        let _ = relu.forward(Tensor::ones(&[4]), true);
        let _ = relu.forward(Tensor::ones(&[4]), false);
        relu.backward(Tensor::ones(&[4]));
    }
}
