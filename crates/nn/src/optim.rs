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
                    momentum_step(value, v, g, lr, mu);
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

/// One momentum step in a single pass: `v = v·μ + g`, then
/// `p += (−lr)·v`, per element. These are the roundings of
/// `v.scale(μ)`, `v.add_assign(g)` and `p.axpy(−lr, v)`, in the same
/// order, so the result is theirs bit for bit.
///
/// # Panics
///
/// Panics if the shapes of `p`, `v` and `g` differ.
fn momentum_step(p: &mut Tensor, v: &mut Tensor, g: &Tensor, lr: f32, mu: f32) {
    assert_eq!(
        v.shape(),
        g.shape(),
        "sgd: velocity and gradient shapes differ"
    );
    assert_eq!(
        p.shape(),
        v.shape(),
        "sgd: parameter and velocity shapes differ"
    );
    let alpha = -lr;
    for ((p, v), &g) in p
        .as_mut_slice()
        .iter_mut()
        .zip(v.as_mut_slice())
        .zip(g.as_slice())
    {
        *v = *v * mu + g;
        *p += alpha * *v;
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
    fn fused_momentum_step_equals_three_passes_bitwise() {
        let salted = |seed: usize| -> Tensor {
            let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            let data = (0..64)
                .map(|i| match (i * 7 + seed) % 11 {
                    j @ 0..=4 => specials[j],
                    _ => ((i + seed) as f32 * 1.37).sin() * 3.0,
                })
                .collect();
            Tensor::from_vec(data, &[8, 8])
        };
        let same = |x: &Tensor, y: &Tensor| {
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
        };
        for mu in [0.0, 0.5, 0.9] {
            for (lr, seed) in [(0.01, 1), (0.1, 2), (1.0, 5)] {
                let (p0, v0, g) = (salted(seed), salted(seed + 3), salted(seed + 6));
                let (mut p, mut v) = (p0.clone(), v0.clone());
                momentum_step(&mut p, &mut v, &g, lr, mu);
                let (mut p3, mut v3) = (p0, v0);
                v3.scale(mu);
                v3.add_assign(&g);
                p3.axpy(-lr, &v3);
                assert!(same(&v, &v3), "velocity, mu {mu} lr {lr}");
                assert!(same(&p, &p3), "parameter, mu {mu} lr {lr}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "parameter and velocity shapes differ")]
    fn fused_momentum_step_rejects_mismatched_parameter() {
        let mut p = Tensor::zeros(&[3]);
        let mut v = Tensor::zeros(&[2]);
        momentum_step(&mut p, &mut v, &Tensor::zeros(&[2]), 0.1, 0.5);
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
