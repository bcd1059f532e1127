//! SGD with momentum — the optimizer used by every method in the paper
//! (lr 0.01, momentum 0.5).

use std::collections::BTreeMap;

use adaptivefl_tensor::{Scratch, Tensor};

use crate::layer::{Layer, ParamKind};

/// Stochastic gradient descent with classical momentum.
///
/// Momentum buffers are keyed by parameter name, so the same optimizer
/// can be reused across submodels of different widths — buffers are
/// (re)created lazily when a parameter's shape changes, which is exactly
/// what happens when a client receives a differently pruned model.
///
/// Momentum buffers come from a [`Scratch`] arena — pass a shared one
/// via [`Sgd::with_scratch`] to amortise the allocations across
/// training sessions. The update arithmetic is independent of the
/// arena: a step with a shared arena is bit-identical to one with a
/// private arena.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: BTreeMap<String, Tensor>,
    scratch: Scratch,
}

impl Sgd {
    /// Creates an SGD optimizer with a private scratch arena.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum < 0`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(momentum >= 0.0, "momentum must be non-negative");
        Sgd {
            lr,
            momentum,
            velocity: BTreeMap::new(),
            scratch: Scratch::new(),
        }
    }

    /// Builder-style shared scratch arena for all optimizer buffers.
    pub fn with_scratch(mut self, scratch: Scratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Applies one SGD step to every trainable parameter of `model`,
    /// using the gradients accumulated by `backward`.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let lr = self.lr;
        let mu = self.momentum;
        let velocity = &mut self.velocity;
        let scratch = &self.scratch;
        model.visit_params_mut(
            "",
            &mut |name: &str, kind: ParamKind, value: &mut Tensor, g: &mut Tensor| {
                if !kind.is_trainable() {
                    return;
                }
                if mu != 0.0 {
                    if !velocity.contains_key(name) {
                        velocity.insert(name.to_string(), scratch.take_tensor(g.shape()));
                    }
                    let v = velocity.get_mut(name).expect("just inserted");
                    if v.shape() != g.shape() {
                        let fresh = scratch.take_tensor(g.shape());
                        scratch.recycle_tensor(std::mem::replace(v, fresh));
                    }
                    v.scale(mu);
                    v.add_assign(g);
                    value.axpy(-lr, v);
                } else {
                    value.axpy(-lr, g);
                }
            },
        );
    }

    /// Discards all momentum buffers (e.g. between federated rounds,
    /// where each local training session starts fresh), returning them
    /// to the scratch arena.
    pub fn reset_state(&mut self) {
        let velocity = std::mem::take(&mut self.velocity);
        for (_, v) in velocity {
            self.scratch.recycle_tensor(v);
        }
    }
}

impl Drop for Sgd {
    /// Returns the momentum buffers to the arena so the next training
    /// session (which builds a fresh `Sgd`) reuses them.
    fn drop(&mut self) {
        self.reset_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerExt;
    use crate::layers::Linear;
    use crate::loss::softmax_cross_entropy;
    use adaptivefl_tensor::{init, rng, Scratch};

    #[test]
    fn sgd_descends_a_quadratic() {
        // Train y = Wx to map a fixed input to class 0.
        let mut r = rng::seeded(20);
        let mut fc = Linear::new(4, 3, &mut r);
        let x = init::normal(&[8, 4], 1.0, &mut r);
        let labels = vec![0usize; 8];
        let mut opt = Sgd::new(0.1, 0.5);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            fc.zero_grads();
            let logits = fc.forward(x.clone(), true);
            let out = softmax_cross_entropy(&logits, &labels);
            let _ = fc.backward(out.dlogits);
            opt.step(&mut fc);
            first.get_or_insert(out.loss);
            last = out.loss;
        }
        assert!(last < 0.3 * first.unwrap(), "loss {last} vs {first:?}");
    }

    #[test]
    fn momentum_buffers_track_param_names() {
        let mut r = rng::seeded(21);
        let mut fc = Linear::new(2, 2, &mut r);
        let mut opt = Sgd::new(0.01, 0.9);
        fc.zero_grads();
        let y = fc.forward(Tensor::ones(&[1, 2]), true);
        let _ = fc.backward(Tensor::ones(y.shape()));
        opt.step(&mut fc);
        assert_eq!(opt.velocity.len(), 2);
        opt.reset_state();
        assert!(opt.velocity.is_empty());
    }

    #[test]
    fn shape_change_resets_buffer() {
        // Same parameter name, different width (pruned model).
        let mut r = rng::seeded(22);
        let mut big = Linear::new(4, 4, &mut r);
        let mut small = Linear::new(2, 2, &mut r);
        let mut opt = Sgd::new(0.01, 0.9);
        for fc in [&mut big, &mut small] {
            fc.zero_grads();
            let y = fc.forward(Tensor::ones(&[1, fc.in_features()]), true);
            let _ = fc.backward(Tensor::ones(y.shape()));
        }
        opt.step(&mut big);
        opt.step(&mut small); // must not panic on shape mismatch
        assert_eq!(small.param_map().numel(), 2 * 2 + 2);
    }

    #[test]
    fn shared_scratch_is_bit_identical_to_private() {
        // Pre-dirty the shared arena so reuse actually happens, then
        // train two identical models with and without it.
        let run = |scratch: Option<Scratch>| {
            let mut r = rng::seeded(24);
            let mut fc = Linear::new(4, 3, &mut r);
            let x = init::normal(&[6, 4], 1.0, &mut r);
            let mut opt = Sgd::new(0.1, 0.7);
            if let Some(s) = scratch {
                opt = opt.with_scratch(s);
            }
            for _ in 0..5 {
                fc.zero_grads();
                let logits = fc.forward(x.clone(), true);
                let out = softmax_cross_entropy(&logits, &[0usize; 6]);
                let _ = fc.backward(out.dlogits);
                opt.step(&mut fc);
            }
            fc.param_map()
        };
        let shared = Scratch::new();
        let mut dirty = shared.take(64);
        dirty.fill(123.456);
        shared.recycle(dirty);
        let a = run(None);
        let b = run(Some(shared.clone()));
        assert_eq!(a, b);
        assert!(shared.reuses() > 0, "arena was never reused");
    }

    #[test]
    fn drop_recycles_velocity_into_scratch() {
        let shared = Scratch::new();
        let mut r = rng::seeded(25);
        let mut fc = Linear::new(3, 2, &mut r);
        {
            let mut opt = Sgd::new(0.1, 0.9).with_scratch(shared.clone());
            fc.zero_grads();
            let y = fc.forward(Tensor::ones(&[1, 3]), true);
            let _ = fc.backward(Tensor::ones(y.shape()));
            opt.step(&mut fc);
        }
        // weight + bias velocity buffers returned on drop.
        assert_eq!(shared.free_buffers(), 2);
    }
}
