//! Shape plumbing: flatten NCHW to `[n, c·h·w]`.

use adaptivefl_tensor::Tensor;

use crate::layer::{Layer, ParamVisitor, ParamVisitorMut};

/// Flattens all axes after the batch axis.
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape().to_vec();
        assert!(!s.is_empty(), "flatten needs at least one axis");
        let rest: usize = s[1..].iter().product();
        let y = x.reshape(&[s[0], rest]);
        self.in_shape = train.then_some(s);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .take()
            .expect("flatten backward without forward");
        dy.reshape(&in_shape)
    }

    fn visit_params(&self, _prefix: &str, _v: &mut dyn ParamVisitor) {}
    fn visit_params_mut(&mut self, _prefix: &str, _v: &mut dyn ParamVisitorMut) {}
    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let y = f.forward(Tensor::ones(&[2, 3, 4, 4]), true);
        assert_eq!(y.shape(), &[2, 48]);
        let dx = f.backward(y);
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "flatten backward without forward")]
    fn eval_forward_drops_an_earlier_training_cache() {
        let mut f = Flatten::new();
        let _ = f.forward(Tensor::ones(&[2, 3, 4, 4]), true);
        let _ = f.forward(Tensor::ones(&[2, 3, 4, 4]), false);
        f.backward(Tensor::ones(&[2, 48]));
    }
}
