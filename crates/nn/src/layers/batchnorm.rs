//! 2-D batch normalisation.
//!
//! Running statistics are exposed as (non-trainable) named parameters so
//! the federated aggregation can average them across clients exactly as
//! HeteroFL-style systems do.

use adaptivefl_tensor::Tensor;

use crate::layer::{join_name, Layer, ParamKind, ParamVisitor, ParamVisitorMut};

/// Batch normalisation over the channel axis of NCHW input.
///
/// Both modes normalise with batch statistics (sBN, DESIGN.md §7).
/// Training mode also updates the running estimates, which are only
/// exchanged and aggregated, and caches `x̂` for the backward;
/// evaluation mode caches and updates nothing.
///
/// The forward pass writes `x̂` over the input it owns (in evaluation
/// mode, `y` itself), and the backward pass writes `dX` over `dY`; the
/// per-channel sums run in `(n, hw)` order, and on small planes the
/// per-element passes run as one flat loop per sample over `[c·hw]`
/// (DESIGN.md §10, "Per-channel layers").
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    /// Gradient slots handed out with the running statistics; the
    /// optimizer skips non-trainable kinds, so they stay zero.
    dummy_mean: Tensor,
    dummy_var: Tensor,
    /// Exponential-moving-average momentum of the running statistics.
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates batch-norm for `c` channels with γ=1, β=0.
    pub fn new(c: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[c]),
            beta: Tensor::zeros(&[c]),
            dgamma: Tensor::zeros(&[c]),
            dbeta: Tensor::zeros(&[c]),
            running_mean: Tensor::zeros(&[c]),
            running_var: Tensor::ones(&[c]),
            dummy_mean: Tensor::zeros(&[c]),
            dummy_var: Tensor::zeros(&[c]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.numel()
    }

    /// Checks an NCHW input against the layer; returns `(n, c, hw)`.
    fn check_input(&self, x: &Tensor) -> (usize, usize, usize) {
        let s = x.shape();
        assert_eq!(s.len(), 4, "BatchNorm2d expects NCHW");
        assert_eq!(s[1], self.channels(), "BatchNorm2d channel mismatch");
        (s[0], s[1], s[2] * s[3])
    }
}

/// Per-channel batch mean and biased variance of an NCHW batch of
/// `(n, c, hw)`, each summed in `(n, hw)` order.
fn batch_stats(x: &Tensor, dims: (usize, usize, usize)) -> (Vec<f32>, Vec<f32>) {
    let cnt = (dims.0 * dims.2) as f32;
    let xv = x.as_slice();
    let mean: Vec<f32> = channel_sums(dims, |_, i| [xv[i]])
        .into_iter()
        .map(|[s]| s / cnt)
        .collect();
    let var = channel_sums(dims, |ci, i| {
        let d = xv[i] - mean[ci];
        [d * d]
    })
    .into_iter()
    .map(|[s]| s / cnt)
    .collect();
    (mean, var)
}

/// Per-channel sums over an NCHW batch of `(n, c, hw)`: `out[ci][m]`
/// is `Σ term(ci, i)[m]` over the element indices `i` of channel `ci`,
/// in `(n, hw)` order from `+0.0`. Blocks of channels run together so
/// their chains overlap; on 1×1 planes, where each sample's channels
/// are contiguous, all of them do, one chain per vector lane.
fn channel_sums<const M: usize>(
    dims: (usize, usize, usize),
    term: impl Fn(usize, usize) -> [f32; M],
) -> Vec<[f32; M]> {
    const LANES: usize = 4;
    let (n, c, hw) = dims;
    let mut out = vec![[0.0f32; M]; c];
    if hw == 1 {
        for ni in 0..n {
            for (ci, o) in out.iter_mut().enumerate() {
                for (s, v) in o.iter_mut().zip(term(ci, ni * c + ci)) {
                    *s += v;
                }
            }
        }
        return out;
    }
    let full = c - c % LANES;
    for c0 in (0..full).step_by(LANES) {
        sum_block::<LANES, M>(dims, c0, &term, &mut out[c0..c0 + LANES]);
    }
    for c0 in full..c {
        sum_block::<1, M>(dims, c0, &term, &mut out[c0..=c0]);
    }
    out
}

/// [`channel_sums`] of the `L` channels from `c0`, one chain each.
fn sum_block<const L: usize, const M: usize>(
    (n, c, hw): (usize, usize, usize),
    c0: usize,
    term: &impl Fn(usize, usize) -> [f32; M],
    out: &mut [[f32; M]],
) {
    let mut acc = [[0.0f32; M]; L];
    for ni in 0..n {
        for j in 0..hw {
            for (l, a) in acc.iter_mut().enumerate() {
                let t = term(c0 + l, (ni * c + c0 + l) * hw + j);
                for (s, v) in a.iter_mut().zip(t) {
                    *s += v;
                }
            }
        }
    }
    out.copy_from_slice(&acc);
}

/// Planes of at most this many cells run the per-element passes as one
/// flat loop per sample; larger planes run one loop per plane. On
/// MobileNetV2's 1×1 and 2×2 planes a loop per plane costs 3–8 ns per
/// element and the flat loop about 1; on 4×4 and 8×8 planes the loop
/// per plane is 1.1–2.5× faster, since the flat loop streams the
/// per-cell copies of the channel values as well.
const FLAT_PLANE: usize = 8;

/// A per-channel vector `v` laid out over one sample's `[c, hw]`
/// cells: each value repeated over its channel's plane.
fn per_cell(v: &[f32], hw: usize) -> Vec<f32> {
    v.iter().flat_map(|&x| std::iter::repeat_n(x, hw)).collect()
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let dims @ (_, c, hw) = self.check_input(&x);
        let (mean, var) = batch_stats(&x, dims);
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let (g, b) = (self.gamma.as_slice(), self.beta.as_slice());
        let chw = (c * hw).max(1);
        if !train {
            // `γ·((x − mean)·inv_std) + β` over `x`: the training
            // branch's `x̂` then `γ·x̂ + β`, in the same order.
            self.cache = None;
            let y = |v: f32, m: f32, is: f32, g: f32, b: f32| g * ((v - m) * is) + b;
            if hw <= FLAT_PLANE {
                let [m, is, g, b] = [&mean, &inv_std, g, b].map(|v| per_cell(v, hw));
                let per_channel = m.iter().zip(&is).zip(&g).zip(&b);
                for sample in x.as_mut_slice().chunks_exact_mut(chw) {
                    for (v, (((&m, &is), &g), &b)) in sample.iter_mut().zip(per_channel.clone()) {
                        *v = y(*v, m, is, g, b);
                    }
                }
            } else {
                for (i, plane) in x.as_mut_slice().chunks_exact_mut(hw).enumerate() {
                    let ci = i % c;
                    let (m, is, g, b) = (mean[ci], inv_std[ci], g[ci], b[ci]);
                    for v in plane {
                        *v = y(*v, m, is, g, b);
                    }
                }
            }
            return x;
        }
        let rm = self.running_mean.as_mut_slice();
        let rv = self.running_var.as_mut_slice();
        for ci in 0..c {
            rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
            rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
        }

        let mut y = vec![0.0f32; x.numel()];
        if hw <= FLAT_PLANE {
            let [m, is, g, b] = [&mean, &inv_std, g, b].map(|v| per_cell(v, hw));
            let per_channel = m.iter().zip(&is).zip(&g).zip(&b);
            let samples = x.as_mut_slice().chunks_exact_mut(chw);
            for (sample, ys) in samples.zip(y.chunks_exact_mut(chw)) {
                let cells = sample.iter_mut().zip(ys).zip(per_channel.clone());
                for ((v, o), (((&m, &is), &g), &b)) in cells {
                    *v = (*v - m) * is;
                    *o = g * *v + b;
                }
            }
        } else {
            let planes = x.as_mut_slice().chunks_exact_mut(hw);
            for (i, (plane, ys)) in planes.zip(y.chunks_exact_mut(hw)).enumerate() {
                let ci = i % c;
                let (m, is, g, b) = (mean[ci], inv_std[ci], g[ci], b[ci]);
                for (v, o) in plane.iter_mut().zip(ys) {
                    *v = (*v - m) * is;
                    *o = g * *v + b;
                }
            }
        }
        let shape = x.shape().to_vec();
        self.cache = Some(BnCache { x_hat: x, inv_std });
        Tensor::from_vec(y, &shape)
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("batchnorm backward without forward");
        let s = cache.x_hat.shape();
        assert_eq!(
            dy.shape(),
            s,
            "batchnorm backward: dy must match the cached input shape"
        );
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let hw = h * w;
        let cnt = (n * hw) as f32;
        let xh = cache.x_hat.as_slice();
        let g = self.gamma.as_slice();
        let sums = channel_sums((n, c, hw), |_, i| {
            let d = dy.as_slice()[i];
            [d, d * xh[i]]
        });
        for (ci, &[sum_dy, sum_dy_xh]) in sums.iter().enumerate() {
            self.dbeta.as_mut_slice()[ci] += sum_dy;
            self.dgamma.as_mut_slice()[ci] += sum_dy_xh;
        }
        let k: Vec<f32> = (0..c).map(|ci| g[ci] * cache.inv_std[ci] / cnt).collect();
        let [sum_dy, sum_dy_xh] = [0, 1].map(|j| sums.iter().map(|s| s[j]).collect::<Vec<_>>());
        let dx = |d: f32, xv: f32, k: f32, s1: f32, s2: f32| k * (cnt * d - s1 - xv * s2);
        if hw <= FLAT_PLANE {
            let [k, s1, s2] = [&k, &sum_dy, &sum_dy_xh].map(|v| per_cell(v, hw));
            let per_channel = k.iter().zip(&s1).zip(&s2);
            let chw = (c * hw).max(1);
            for (ds, xs) in dy
                .as_mut_slice()
                .chunks_exact_mut(chw)
                .zip(xh.chunks_exact(chw))
            {
                let cells = ds.iter_mut().zip(xs).zip(per_channel.clone());
                for ((d, &xv), ((&k, &s1), &s2)) in cells {
                    *d = dx(*d, xv, k, s1, s2);
                }
            }
        } else {
            for (i, (ds, xs)) in dy
                .as_mut_slice()
                .chunks_exact_mut(hw)
                .zip(xh.chunks_exact(hw))
                .enumerate()
            {
                let ci = i % c;
                let (k, s1, s2) = (k[ci], sum_dy[ci], sum_dy_xh[ci]);
                for (d, &xv) in ds.iter_mut().zip(xs) {
                    *d = dx(*d, xv, k, s1, s2);
                }
            }
        }
        dy
    }

    fn visit_params(&self, prefix: &str, v: &mut dyn ParamVisitor) {
        v.visit(
            &join_name(prefix, "gamma"),
            ParamKind::Gamma,
            &self.gamma,
            &self.dgamma,
        );
        v.visit(
            &join_name(prefix, "beta"),
            ParamKind::Beta,
            &self.beta,
            &self.dbeta,
        );
        v.visit(
            &join_name(prefix, "running_mean"),
            ParamKind::RunningMean,
            &self.running_mean,
            &self.dgamma, // grad slot unused for running stats
        );
        v.visit(
            &join_name(prefix, "running_var"),
            ParamKind::RunningVar,
            &self.running_var,
            &self.dbeta,
        );
    }

    fn visit_params_mut(&mut self, prefix: &str, v: &mut dyn ParamVisitorMut) {
        v.visit(
            &join_name(prefix, "gamma"),
            ParamKind::Gamma,
            &mut self.gamma,
            &mut self.dgamma,
        );
        v.visit(
            &join_name(prefix, "beta"),
            ParamKind::Beta,
            &mut self.beta,
            &mut self.dbeta,
        );
        // Running statistics get dummy grad slots; the optimizer skips
        // non-trainable kinds.
        v.visit(
            &join_name(prefix, "running_mean"),
            ParamKind::RunningMean,
            &mut self.running_mean,
            &mut self.dummy_mean,
        );
        v.visit(
            &join_name(prefix, "running_var"),
            ParamKind::RunningVar,
            &mut self.running_var,
            &mut self.dummy_var,
        );
    }

    fn zero_grads(&mut self) {
        self.dgamma.fill(0.0);
        self.dbeta.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_tensor::{init, rng};

    #[test]
    fn train_output_is_normalised() {
        let mut r = rng::seeded(6);
        let mut bn = BatchNorm2d::new(3);
        let x = init::normal(&[4, 3, 5, 5], 3.0, &mut r).map(|v| v + 10.0);
        let y = bn.forward(x, true);
        // Per-channel mean ≈ 0, std ≈ 1.
        let (n, c, h, w) = (4, 3, 5, 5);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                vals.extend_from_slice(&y.as_slice()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn backward_matches_finite_differences_on_gamma() {
        let mut r = rng::seeded(7);
        let mut bn = BatchNorm2d::new(2);
        let x = init::normal(&[2, 2, 3, 3], 1.0, &mut r);
        let y = bn.forward(x.clone(), true);
        let _ = bn.backward(Tensor::ones(y.shape()));
        let ana = bn.dgamma.clone();

        let eps = 1e-2f32;
        for ci in 0..2 {
            let orig = bn.gamma.as_slice()[ci];
            bn.gamma.as_mut_slice()[ci] = orig + eps;
            let lp = bn.forward(x.clone(), true).sum();
            bn.gamma.as_mut_slice()[ci] = orig - eps;
            let lm = bn.forward(x.clone(), true).sum();
            bn.gamma.as_mut_slice()[ci] = orig;
            bn.cache = None;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana.as_slice()[ci]).abs() < 0.05 * (1.0 + ana.as_slice()[ci].abs()),
                "dgamma[{ci}]: {num} vs {}",
                ana.as_slice()[ci]
            );
        }
    }

    #[test]
    fn backward_dx_sums_to_zero_per_channel() {
        // BN output is invariant to a constant shift of the batch, so
        // the per-channel sum of dx must vanish.
        let mut r = rng::seeded(8);
        let mut bn = BatchNorm2d::new(2);
        let x = init::normal(&[3, 2, 4, 4], 1.0, &mut r);
        let y = bn.forward(x, true);
        let dy = init::normal(y.shape(), 1.0, &mut r);
        let dx = bn.backward(dy);
        let (n, c, h, w) = (3, 2, 4, 4);
        for ci in 0..c {
            let mut s = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                s += dx.as_slice()[base..base + h * w].iter().sum::<f32>();
            }
            assert!(s.abs() < 1e-2, "channel {ci} dx sum {s}");
        }
    }

    #[test]
    fn exposes_running_stats_as_params() {
        let bn = BatchNorm2d::new(4);
        let mut names = Vec::new();
        bn.visit_params("bn", &mut |n: &str,
                                    k: ParamKind,
                                    _: &Tensor,
                                    _: &Tensor| {
            names.push((n.to_string(), k));
        });
        assert_eq!(names.len(), 4);
        assert!(names
            .iter()
            .any(|(n, k)| n == "bn.running_mean" && !k.is_trainable()));
    }
}
