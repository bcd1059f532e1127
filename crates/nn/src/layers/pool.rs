//! Pooling layers.

use adaptivefl_tensor::ops::{
    global_avg_pool_backward, global_avg_pool_forward, max_pool2d_backward, max_pool2d_forward,
};
use adaptivefl_tensor::Tensor;

use crate::layer::{Layer, ParamVisitor, ParamVisitorMut};

/// Max pooling with a square window (window == stride).
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, in_shape)
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window/stride.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        MaxPool2d {
            window,
            cache: None,
        }
    }

    /// The pooling window size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let in_shape = x.shape().to_vec();
        let (y, arg) = max_pool2d_forward(&x, self.window);
        self.cache = train.then_some((arg, in_shape));
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let (arg, in_shape) = self.cache.take().expect("maxpool backward without forward");
        max_pool2d_backward(&dy, &arg, &in_shape)
    }

    fn visit_params(&self, _prefix: &str, _v: &mut dyn ParamVisitor) {}
    fn visit_params_mut(&mut self, _prefix: &str, _v: &mut dyn ParamVisitorMut) {}
    fn zero_grads(&mut self) {}
}

/// Global average pooling `[n, c, h, w] → [n, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        self.in_shape = train.then(|| x.shape().to_vec());
        global_avg_pool_forward(&x)
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let in_shape = self.in_shape.take().expect("gap backward without forward");
        global_avg_pool_backward(&dy, &in_shape)
    }

    fn visit_params(&self, _prefix: &str, _v: &mut dyn ParamVisitor) {}
    fn visit_params_mut(&mut self, _prefix: &str, _v: &mut dyn ParamVisitorMut) {}
    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_roundtrip() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        let dx = p.backward(Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn gap_shapes() {
        let mut g = GlobalAvgPool::new();
        let y = g.forward(Tensor::ones(&[2, 3, 4, 4]), true);
        assert_eq!(y.shape(), &[2, 3]);
        let dx = g.backward(Tensor::ones(&[2, 3]));
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "gap backward without forward")]
    fn gap_eval_forward_drops_an_earlier_training_cache() {
        let mut g = GlobalAvgPool::new();
        let _ = g.forward(Tensor::ones(&[2, 3, 4, 4]), true);
        let _ = g.forward(Tensor::ones(&[2, 3, 4, 4]), false);
        g.backward(Tensor::ones(&[2, 3]));
    }
}
