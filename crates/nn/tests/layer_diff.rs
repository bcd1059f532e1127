//! Differential suite for the per-channel layers and `Linear`:
//! `DepthwiseConv2d`, `BatchNorm2d`, `Relu` and `Linear` must be
//! **bit-equal** (`f32::to_bits`) to straightforward loops, which are
//! kept here as oracles (for the first three, verbatim the loops they
//! replaced).
//!
//! Covered: batch, channel and plane sizes down to 1×1 planes and
//! planes smaller than the kernel (which fit only once padded), 1 to 11
//! channels (the vectorized channel loops' remainders), kernels 1 to 5
//! at strides 1 to 3 with padding 0 to 2, `Linear` widths
//! from 1 to the VGG16-fast classifier's, and inputs, weights and
//! gradients salted with exact `+0.0` / `-0.0`, `±∞` and NaN. Every case
//! runs two training steps (forward + backward) onto gradient buffers
//! that start salted too, then one eval forward (for `BatchNorm2d`, sBN
//! inference: the training-mode oracle's output with the running
//! statistics unchanged), so the gradient accumulation order across
//! minibatches and any buffer a layer keeps between calls are checked
//! as well. A NaN matches any NaN (DESIGN.md §10); every other value
//! must match bit for bit. `suite_passes_with_reference_kernels` reruns
//! the suite under `TENSOR_NAIVE=1`, so one `cargo test` checks both
//! kernel modes.

use adaptivefl_nn::layer::{Layer, ParamKind};
use adaptivefl_nn::layers::{BatchNorm2d, DepthwiseConv2d, Linear, Relu};
use adaptivefl_tensor::ops::naive_kernels_forced;
use adaptivefl_tensor::{rng, Tensor};
use proptest::prelude::*;

/// Salt levels for [`fill`].
#[derive(Debug, Clone, Copy)]
enum Salt {
    /// Finite, never zero.
    Clean,
    /// Exact `+0.0` / `-0.0` mixed in.
    Zeros,
    /// Zeros plus the odd `±∞` and NaN.
    NonFinite,
}

const SALTS: [Salt; 3] = [Salt::Clean, Salt::Zeros, Salt::NonFinite];

fn fill(shape: &[usize], seed: u64, salt: Salt) -> Tensor {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            let v = ((r % 8000) as f32 + 0.5) / 1000.0 - 4.0;
            match (salt, r % 64) {
                (Salt::Zeros | Salt::NonFinite, 0..=7) => 0.0,
                (Salt::Zeros | Salt::NonFinite, 8..=15) => -0.0,
                (Salt::NonFinite, 16) => f32::INFINITY,
                (Salt::NonFinite, 17) => f32::NEG_INFINITY,
                (Salt::NonFinite, 18) => f32::NAN,
                _ => v,
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Every element equal by `to_bits`, except that any two NaNs match:
/// the sign and payload of a NaN result depend on the instruction the
/// compiler picks, not on the order of operations.
fn assert_bits_equal(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i} differs: layer {x:?} ({:#010x}) vs oracle {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Overwrites the named parameters (and their gradient slots) of `layer`.
fn set_params(layer: &mut dyn Layer, values: &[(&str, &Tensor, &Tensor)]) {
    layer.visit_params_mut(
        "",
        &mut |name: &str, _: ParamKind, v: &mut Tensor, g: &mut Tensor| {
            if let Some((_, value, grad)) = values.iter().find(|(n, _, _)| *n == name) {
                *v = (*value).clone();
                if g.shape() == grad.shape() {
                    *g = (*grad).clone();
                }
            }
        },
    );
}

/// The named parameter and its gradient slot.
fn param(layer: &dyn Layer, name: &str) -> (Vec<f32>, Vec<f32>) {
    let mut out = None;
    layer.visit_params("", &mut |n: &str, _: ParamKind, v: &Tensor, g: &Tensor| {
        if n == name {
            out = Some((v.as_slice().to_vec(), g.as_slice().to_vec()));
        }
    });
    out.unwrap_or_else(|| panic!("no parameter {name}"))
}

// ---------------------------------------------------------------------
// Oracles: the loops the layers used before the direct kernels.
// ---------------------------------------------------------------------

struct DepthwiseOracle {
    weight: Vec<f32>,
    bias: Vec<f32>,
    dweight: Vec<f32>,
    dbias: Vec<f32>,
    k: usize,
    stride: usize,
    pad: usize,
}

impl DepthwiseOracle {
    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let xv = x.as_slice();
        let wv = &self.weight;
        let bv = &self.bias;
        let kk = self.k * self.k;
        for ni in 0..n {
            for ci in 0..c {
                let xin = &xv[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let ker = &wv[ci * kk..(ci + 1) * kk];
                let dst = &mut out[(ni * c + ci) * oh * ow..(ni * c + ci + 1) * oh * ow];
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = bv[ci];
                        for ki in 0..self.k {
                            let ii = (oi * self.stride + ki) as isize - self.pad as isize;
                            if ii < 0 || ii as usize >= h {
                                continue;
                            }
                            for kj in 0..self.k {
                                let jj = (oj * self.stride + kj) as isize - self.pad as isize;
                                if jj < 0 || jj as usize >= w {
                                    continue;
                                }
                                acc += ker[ki * self.k + kj] * xin[ii as usize * w + jj as usize];
                            }
                        }
                        dst[oi * ow + oj] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut dx = vec![0.0f32; n * c * h * w];
        let xv = x.as_slice();
        let dyv = dy.as_slice();
        let wv = &self.weight;
        let dwv = &mut self.dweight;
        let dbv = &mut self.dbias;
        let kk = self.k * self.k;
        for ni in 0..n {
            for ci in 0..c {
                let xin = &xv[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let g = &dyv[(ni * c + ci) * oh * ow..(ni * c + ci + 1) * oh * ow];
                let ker = &wv[ci * kk..(ci + 1) * kk];
                let dker = &mut dwv[ci * kk..(ci + 1) * kk];
                let dxi = &mut dx[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                for oi in 0..oh {
                    for oj in 0..ow {
                        let gy = g[oi * ow + oj];
                        if gy == 0.0 {
                            continue;
                        }
                        dbv[ci] += gy;
                        for ki in 0..self.k {
                            let ii = (oi * self.stride + ki) as isize - self.pad as isize;
                            if ii < 0 || ii as usize >= h {
                                continue;
                            }
                            for kj in 0..self.k {
                                let jj = (oj * self.stride + kj) as isize - self.pad as isize;
                                if jj < 0 || jj as usize >= w {
                                    continue;
                                }
                                let xi = ii as usize * w + jj as usize;
                                dker[ki * self.k + kj] += gy * xin[xi];
                                dxi[xi] += gy * ker[ki * self.k + kj];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(dx, x.shape())
    }
}

struct BnOracle {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    dgamma: Vec<f32>,
    dbeta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

struct BnCache {
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BnOracle {
    #[allow(clippy::needless_range_loop)]
    fn forward(&mut self, x: &Tensor) -> (Tensor, BnCache) {
        let s = x.shape().to_vec();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let cnt = (n * h * w) as f32;
        let xv = x.as_slice();

        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for &v in &xv[base..base + h * w] {
                    mean[ci] += v;
                }
            }
        }
        for m in &mut mean {
            *m /= cnt;
        }
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for &v in &xv[base..base + h * w] {
                    let d = v - mean[ci];
                    var[ci] += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= cnt;
        }
        for ci in 0..c {
            let rm = &mut self.running_mean[ci];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[ci];
            let rv = &mut self.running_var[ci];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * var[ci];
        }

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = vec![0.0f32; xv.len()];
        let mut y = vec![0.0f32; xv.len()];
        let g = &self.gamma;
        let b = &self.beta;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    let xh = (xv[i] - mean[ci]) * inv_std[ci];
                    x_hat[i] = xh;
                    y[i] = g[ci] * xh + b[ci];
                }
            }
        }
        (Tensor::from_vec(y, &s), BnCache { x_hat, inv_std })
    }

    fn backward(&mut self, cache: &BnCache, dy: &Tensor) -> Tensor {
        let s = dy.shape().to_vec();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let cnt = (n * h * w) as f32;
        let dyv = dy.as_slice();
        let xh = &cache.x_hat;

        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xh = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    sum_dy[ci] += dyv[i];
                    sum_dy_xh[ci] += dyv[i] * xh[i];
                }
            }
        }
        for ci in 0..c {
            self.dbeta[ci] += sum_dy[ci];
            self.dgamma[ci] += sum_dy_xh[ci];
        }

        let g = &self.gamma;
        let mut dx = vec![0.0f32; dyv.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let k = g[ci] * cache.inv_std[ci] / cnt;
                for i in base..base + h * w {
                    dx[i] = k * (cnt * dyv[i] - sum_dy[ci] - xh[i] * sum_dy_xh[ci]);
                }
            }
        }
        Tensor::from_vec(dx, &s)
    }
}

fn relu_oracle_forward(x: &Tensor) -> (Tensor, Vec<bool>) {
    let mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
    (x.map(|v| v.max(0.0)), mask)
}

fn relu_oracle_backward(mask: &[bool], dy: &Tensor) -> Tensor {
    let mut dx = dy.clone();
    for (v, &m) in dx.as_mut_slice().iter_mut().zip(mask.iter()) {
        if !m {
            *v = 0.0;
        }
    }
    dx
}

/// `y = x·Wᵀ + b` with `W [out, in]`, as plain loops.
struct LinearOracle {
    weight: Vec<f32>,
    bias: Vec<f32>,
    dweight: Vec<f32>,
    dbias: Vec<f32>,
    in_f: usize,
    out_f: usize,
}

impl LinearOracle {
    /// Each `y[r][o]` is a dot product from `+0.0`, then `+ b[o]`.
    fn forward(&self, x: &Tensor) -> Tensor {
        let (n, fi, fo) = (x.shape()[0], self.in_f, self.out_f);
        let xv = x.as_slice();
        let mut y = vec![0.0f32; n * fo];
        for r in 0..n {
            for o in 0..fo {
                let mut acc = 0.0f32;
                for i in 0..fi {
                    acc += xv[r * fi + i] * self.weight[o * fi + i];
                }
                y[r * fo + o] = acc + self.bias[o];
            }
        }
        Tensor::from_vec(y, &[n, fo])
    }

    /// `dW += dyᵀ·x` (k-outer, skipping `dy == 0`), `db +=` column sums
    /// of `dy` in row order, and `dx = dy·W` skipping `dy == 0`.
    fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        let (n, fi, fo) = (x.shape()[0], self.in_f, self.out_f);
        let (xv, dyv) = (x.as_slice(), dy.as_slice());
        let mut dw = vec![0.0f32; fo * fi];
        for r in 0..n {
            for o in 0..fo {
                let g = dyv[r * fo + o];
                if g == 0.0 {
                    continue;
                }
                for i in 0..fi {
                    dw[o * fi + i] += g * xv[r * fi + i];
                }
            }
        }
        for (d, v) in self.dweight.iter_mut().zip(dw) {
            *d += v;
        }
        for r in 0..n {
            for o in 0..fo {
                self.dbias[o] += dyv[r * fo + o];
            }
        }
        let mut dx = vec![0.0f32; n * fi];
        for r in 0..n {
            for o in 0..fo {
                let g = dyv[r * fo + o];
                if g == 0.0 {
                    continue;
                }
                for i in 0..fi {
                    dx[r * fi + i] += g * self.weight[o * fi + i];
                }
            }
        }
        Tensor::from_vec(dx, &[n, fi])
    }
}

// ---------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------

/// Salts of one case: input, gradients flowing in, parameters.
#[derive(Debug, Clone, Copy)]
struct Salts {
    x: Salt,
    dy: Salt,
    param: Salt,
}

fn salts(i: usize) -> Salts {
    Salts {
        x: SALTS[i % 3],
        dy: SALTS[i / 3 % 3],
        param: SALTS[i / 9 % 3],
    }
}

#[allow(clippy::too_many_arguments)]
fn check_depthwise(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    seed: u64,
    salt: Salts,
) {
    let what = format!("depthwise n={n} c={c} {h}x{w} k={k} s={stride} p={pad} {salt:?}");
    let mut r = rng::seeded(seed);
    let mut layer = DepthwiseConv2d::new(c, k, stride, pad, &mut r);
    let mut oracle = DepthwiseOracle {
        weight: fill(&[c, 1, k, k], seed ^ 1, salt.param).into_vec(),
        bias: fill(&[c], seed ^ 2, salt.param).into_vec(),
        dweight: fill(&[c, 1, k, k], seed ^ 3, Salt::Zeros).into_vec(),
        dbias: fill(&[c], seed ^ 4, Salt::Zeros).into_vec(),
        k,
        stride,
        pad,
    };
    let t = |v: &[f32], s: &[usize]| Tensor::from_vec(v.to_vec(), s);
    set_params(
        &mut layer,
        &[
            (
                "weight",
                &t(&oracle.weight, &[c, 1, k, k]),
                &t(&oracle.dweight, &[c, 1, k, k]),
            ),
            ("bias", &t(&oracle.bias, &[c]), &t(&oracle.dbias, &[c])),
        ],
    );
    for step in 0..2u64 {
        let x = fill(&[n, c, h, w], seed ^ (10 + step), salt.x);
        let y = layer.forward(x.clone(), true);
        let y_ref = oracle.forward(&x);
        assert_eq!(y.shape(), y_ref.shape(), "y shape: {what}");
        assert_bits_equal(y.as_slice(), y_ref.as_slice(), &format!("y: {what}"));

        let dy = fill(y.shape(), seed ^ (20 + step), salt.dy);
        let dx = layer.backward(dy.clone());
        let dx_ref = oracle.backward(&x, &dy);
        assert_bits_equal(dx.as_slice(), dx_ref.as_slice(), &format!("dx: {what}"));
        let (_, dweight) = param(&layer, "weight");
        let (_, dbias) = param(&layer, "bias");
        assert_bits_equal(&dweight, &oracle.dweight, &format!("dweight: {what}"));
        assert_bits_equal(&dbias, &oracle.dbias, &format!("dbias: {what}"));
    }
    let x = fill(&[n, c, h, w], seed ^ 30, salt.x);
    let y = layer.forward(x.clone(), false);
    assert_bits_equal(
        y.as_slice(),
        oracle.forward(&x).as_slice(),
        &format!("eval y: {what}"),
    );
}

fn check_batchnorm(n: usize, c: usize, h: usize, w: usize, seed: u64, salt: Salts) {
    let what = format!("batchnorm n={n} c={c} {h}x{w} {salt:?}");
    let mut layer = BatchNorm2d::new(c);
    let mut oracle = BnOracle {
        gamma: fill(&[c], seed ^ 1, salt.param).into_vec(),
        beta: fill(&[c], seed ^ 2, salt.param).into_vec(),
        dgamma: fill(&[c], seed ^ 3, Salt::Zeros).into_vec(),
        dbeta: fill(&[c], seed ^ 4, Salt::Zeros).into_vec(),
        running_mean: fill(&[c], seed ^ 5, Salt::Zeros).into_vec(),
        running_var: fill(&[c], seed ^ 6, Salt::Clean)
            .into_vec()
            .iter()
            .map(|v| v.abs())
            .collect(),
        momentum: 0.1,
        eps: 1e-5,
    };
    let t = |v: &[f32]| Tensor::from_vec(v.to_vec(), &[c]);
    let none = Tensor::zeros(&[0]);
    set_params(
        &mut layer,
        &[
            ("gamma", &t(&oracle.gamma), &t(&oracle.dgamma)),
            ("beta", &t(&oracle.beta), &t(&oracle.dbeta)),
            ("running_mean", &t(&oracle.running_mean), &none),
            ("running_var", &t(&oracle.running_var), &none),
        ],
    );
    let check_stats = |layer: &BatchNorm2d, oracle: &BnOracle, when: &str| {
        let (rm, _) = param(layer, "running_mean");
        let (rv, _) = param(layer, "running_var");
        assert_bits_equal(
            &rm,
            &oracle.running_mean,
            &format!("running_mean {when}: {what}"),
        );
        assert_bits_equal(
            &rv,
            &oracle.running_var,
            &format!("running_var {when}: {what}"),
        );
    };
    for step in 0..2u64 {
        let x = fill(&[n, c, h, w], seed ^ (10 + step), salt.x);
        let y = layer.forward(x.clone(), true);
        let (y_ref, cache) = oracle.forward(&x);
        assert_bits_equal(y.as_slice(), y_ref.as_slice(), &format!("y: {what}"));
        check_stats(&layer, &oracle, "after train forward");

        let dy = fill(&[n, c, h, w], seed ^ (20 + step), salt.dy);
        let dx = layer.backward(dy.clone());
        let dx_ref = oracle.backward(&cache, &dy);
        assert_bits_equal(dx.as_slice(), dx_ref.as_slice(), &format!("dx: {what}"));
        let (_, dgamma) = param(&layer, "gamma");
        let (_, dbeta) = param(&layer, "beta");
        assert_bits_equal(&dgamma, &oracle.dgamma, &format!("dgamma: {what}"));
        assert_bits_equal(&dbeta, &oracle.dbeta, &format!("dbeta: {what}"));
    }
    // sBN inference: the training-mode output, bit for bit, with the
    // running statistics left alone.
    let x = fill(&[n, c, h, w], seed ^ 30, salt.x);
    let y = layer.forward(x.clone(), false);
    let stats = (oracle.running_mean.clone(), oracle.running_var.clone());
    let (y_ref, _) = oracle.forward(&x);
    (oracle.running_mean, oracle.running_var) = stats;
    assert_bits_equal(y.as_slice(), y_ref.as_slice(), &format!("eval y: {what}"));
    check_stats(&layer, &oracle, "after eval forward");
}

fn check_relu(shape: &[usize], seed: u64, salt: Salts) {
    let what = format!("relu {shape:?} {salt:?}");
    let mut layer = Relu::new();
    for step in 0..2u64 {
        let x = fill(shape, seed ^ (10 + step), salt.x);
        let y = layer.forward(x.clone(), true);
        let (y_ref, mask) = relu_oracle_forward(&x);
        assert_bits_equal(y.as_slice(), y_ref.as_slice(), &format!("y: {what}"));
        let dy = fill(shape, seed ^ (20 + step), salt.dy);
        let dx = layer.backward(dy.clone());
        let dx_ref = relu_oracle_backward(&mask, &dy);
        assert_bits_equal(dx.as_slice(), dx_ref.as_slice(), &format!("dx: {what}"));
    }
    let x = fill(shape, seed ^ 30, salt.x);
    let y = layer.forward(x.clone(), false);
    let (y_ref, _) = relu_oracle_forward(&x);
    assert_bits_equal(y.as_slice(), y_ref.as_slice(), &format!("eval y: {what}"));
}

fn check_linear(n: usize, in_f: usize, out_f: usize, seed: u64, salt: Salts) {
    let what = format!("linear n={n} {in_f}->{out_f} {salt:?}");
    let mut layer = Linear::new(in_f, out_f, &mut rng::seeded(seed));
    let mut oracle = LinearOracle {
        weight: fill(&[out_f, in_f], seed ^ 1, salt.param).into_vec(),
        bias: fill(&[out_f], seed ^ 2, salt.param).into_vec(),
        dweight: fill(&[out_f, in_f], seed ^ 3, Salt::Zeros).into_vec(),
        dbias: fill(&[out_f], seed ^ 4, Salt::Zeros).into_vec(),
        in_f,
        out_f,
    };
    let t = |v: &[f32], s: &[usize]| Tensor::from_vec(v.to_vec(), s);
    set_params(
        &mut layer,
        &[
            (
                "weight",
                &t(&oracle.weight, &[out_f, in_f]),
                &t(&oracle.dweight, &[out_f, in_f]),
            ),
            (
                "bias",
                &t(&oracle.bias, &[out_f]),
                &t(&oracle.dbias, &[out_f]),
            ),
        ],
    );
    for step in 0..2u64 {
        let x = fill(&[n, in_f], seed ^ (10 + step), salt.x);
        let y = layer.forward(x.clone(), true);
        let y_ref = oracle.forward(&x);
        assert_eq!(y.shape(), y_ref.shape(), "y shape: {what}");
        assert_bits_equal(y.as_slice(), y_ref.as_slice(), &format!("y: {what}"));

        let dy = fill(&[n, out_f], seed ^ (20 + step), salt.dy);
        let dx = layer.backward(dy.clone());
        let dx_ref = oracle.backward(&x, &dy);
        assert_bits_equal(dx.as_slice(), dx_ref.as_slice(), &format!("dx: {what}"));
        let (_, dweight) = param(&layer, "weight");
        let (_, dbias) = param(&layer, "bias");
        assert_bits_equal(&dweight, &oracle.dweight, &format!("dweight: {what}"));
        assert_bits_equal(&dbias, &oracle.dbias, &format!("dbias: {what}"));
    }
    let x = fill(&[n, in_f], seed ^ 30, salt.x);
    let y = layer.forward(x.clone(), false);
    assert_bits_equal(
        y.as_slice(),
        oracle.forward(&x).as_slice(),
        &format!("eval y: {what}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random depthwise layers over every kernel, stride and padding.
    #[test]
    fn depthwise_is_bit_equal_to_oracle(
        nc in (1usize..=3, 1usize..=11),
        hw in (1usize..=9, 1usize..=9),
        geo in (1usize..=5, 1usize..=3, 0usize..=2),
        salt in 0usize..27,
        seed in 0u64..1 << 60,
    ) {
        let (n, c) = nc;
        let (k, stride, pad) = geo;
        // Planes smaller than the kernel are drawn as long as they fit
        // once padded; the geometry guard rejects the rest.
        let fit = k.saturating_sub(2 * pad);
        let (h, w) = (hw.0.max(fit), hw.1.max(fit));
        check_depthwise(n, c, h, w, k, stride, pad, seed, salts(salt));
    }

    /// Random batch-norm layers, including single-element channels.
    #[test]
    fn batchnorm_is_bit_equal_to_oracle(
        nc in (1usize..=4, 1usize..=5),
        hw in (1usize..=7, 1usize..=7),
        salt in 0usize..27,
        seed in 0u64..1 << 60,
    ) {
        check_batchnorm(nc.0, nc.1, hw.0, hw.1, seed, salts(salt));
    }

    /// Random ReLU inputs, NCHW and flat.
    #[test]
    fn relu_is_bit_equal_to_oracle(
        shape in (1usize..=3, 1usize..=4, 1usize..=6, 1usize..=6),
        flat in 0usize..2,
        salt in 0usize..9,
        seed in 0u64..1 << 60,
    ) {
        let (n, c, h, w) = shape;
        let dims = if flat == 1 { vec![n, c * h * w] } else { vec![n, c, h, w] };
        check_relu(&dims, seed, salts(salt));
    }

    /// Random `Linear` layers straddling the 4-row panels and the 8-,
    /// 16- and 32-wide tiles of the matmul kernels.
    #[test]
    fn linear_is_bit_equal_to_oracle(
        n in 1usize..=9,
        features in (1usize..=37, 1usize..=37),
        salt in 0usize..27,
        seed in 0u64..1 << 60,
    ) {
        check_linear(n, features.0, features.1, seed, salts(salt));
    }
}

/// MobileNetV2 shapes at training batch 8: 3×3 depthwise at stride 1
/// and 2 on 16×16 down to 1×1 planes. The 4×4 and 2×2 stride-1 planes
/// are most of the fig6 test-bed's depthwise layers; their channel
/// counts are odd, so the vectorized channel loops run a remainder.
#[test]
fn mobilenet_shapes_are_bit_equal() {
    for (i, &(c, side, stride)) in [
        (16, 16, 1),
        (48, 16, 2),
        (72, 8, 1),
        (99, 4, 1),
        (96, 4, 2),
        (195, 2, 1),
        (160, 1, 1),
    ]
    .iter()
    .enumerate()
    {
        for s in [0, 4, 13, 26] {
            let seed = 100 + i as u64;
            check_depthwise(8, c, side, side, 3, stride, 1, seed, salts(s));
            check_batchnorm(8, c, side, side, seed, salts(s));
            check_relu(&[8, c, side, side], seed, salts(s));
        }
    }
}

/// The VGG16-fast classifier at training batch 16: 64 → 512 → 512 → 10.
#[test]
fn vgg16_linear_shapes_are_bit_equal() {
    for (i, &(in_f, out_f)) in [(64, 512), (512, 512), (512, 10)].iter().enumerate() {
        for s in [0, 4, 13, 26] {
            check_linear(16, in_f, out_f, 200 + i as u64, salts(s));
        }
    }
}

/// A plain `cargo test` runs this suite with the default kernels. This
/// test reruns it once under `TENSOR_NAIVE=1`, so the reference kernels
/// are checked by the same cases.
#[test]
fn suite_passes_with_reference_kernels() {
    if naive_kernels_forced() {
        return; // this process is the reference-kernel run
    }
    let me = "suite_passes_with_reference_kernels";
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .env("TENSOR_NAIVE", "1")
        .args(["--skip", me])
        .output()
        .expect("rerun the suite");
    assert!(
        out.status.success(),
        "suite failed under TENSOR_NAIVE=1:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
