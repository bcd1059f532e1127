//! Differential conv suite: the batched lowering of `conv2d_forward` /
//! `conv2d_backward` (one im2col and one matmul per layer per minibatch)
//! must be **bit-equal** (`f32::to_bits`) to a per-sample lowering — one
//! im2col and one matmul per sample, the loop the batched code replaced,
//! kept here as the oracle.
//!
//! Covered: every conv geometry the paper models use (3×3 pad 1 at
//! stride 1 and 2, 1×1 pad 0), plus 5×5 pad 2 and 3×3 pad 0, whose tap
//! runs cut two cells or none off each edge of the plane (odd sides
//! included), batch sizes 1, 3 and 16, spatial sizes
//! down to a single output pixel (the deep layers of the 8×8 models),
//! and inputs, weights and output gradients salted with exact `+0.0` /
//! `-0.0` (the zero-skip of the A-side kernels), `±∞` and NaN. 3×3 and
//! 5×5 kernels over a 1×1 plane, which run as their centre tap's
//! pointwise conv, are checked with non-finite values placed where only
//! the skipped padding taps would meet them. 1×1 convs on a 1×1 plane,
//! whose data moves are transposes, are checked at every salt level.
//! The gradients are added onto buffers salted with `±0.0`.
//! `suite_passes_with_reference_kernels` reruns the suite under
//! `TENSOR_NAIVE=1`, so one `cargo test` checks the reference kernels
//! underneath as well.
//! A NaN matches any NaN (see [`assert_bits_equal`]); every other value
//! must match bit for bit.

use adaptivefl_tensor::ops::{
    conv2d_backward, conv2d_forward, matmul, matmul_a_bt, naive_kernels_forced, transpose,
    ConvGeometry,
};
use adaptivefl_tensor::Tensor;
use proptest::prelude::*;

const GEOMETRIES: [ConvGeometry; 5] = [
    ConvGeometry {
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    },
    ConvGeometry {
        kh: 3,
        kw: 3,
        stride: 2,
        pad: 1,
    },
    ConvGeometry {
        kh: 1,
        kw: 1,
        stride: 1,
        pad: 0,
    },
    ConvGeometry {
        kh: 5,
        kw: 5,
        stride: 1,
        pad: 2,
    },
    ConvGeometry {
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 0,
    },
];
const BATCHES: [usize; 3] = [1, 3, 16];
const SIDES: [usize; 5] = [1, 2, 3, 4, 8];

/// The smallest plane side `geo` fits once padded.
fn smallest_side(geo: ConvGeometry) -> usize {
    geo.kh.saturating_sub(2 * geo.pad).max(1)
}

/// Per-sample im2col: one sample `[c, h, w]` → `[c·kh·kw, oh·ow]`.
fn im2col(x: &[f32], c: usize, h: usize, w: usize, geo: ConvGeometry) -> Tensor {
    let (oh, ow) = geo.out_hw(h, w);
    let rows = c * geo.kh * geo.kw;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    for ci in 0..c {
        for ki in 0..geo.kh {
            for kj in 0..geo.kw {
                let row = (ci * geo.kh + ki) * geo.kw + kj;
                for oi in 0..oh {
                    let ii = (oi * geo.stride + ki) as isize - geo.pad as isize;
                    if ii < 0 || ii as usize >= h {
                        continue;
                    }
                    let src_row = ci * h * w + ii as usize * w;
                    let dst_row = row * cols + oi * ow;
                    for oj in 0..ow {
                        let jj = (oj * geo.stride + kj) as isize - geo.pad as isize;
                        if jj < 0 || jj as usize >= w {
                            continue;
                        }
                        out[dst_row + oj] = x[src_row + jj as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Per-sample col2im, the adjoint of [`im2col`].
fn col2im(cols_t: &Tensor, c: usize, h: usize, w: usize, geo: ConvGeometry) -> Vec<f32> {
    let (oh, ow) = geo.out_hw(h, w);
    let cols = oh * ow;
    let src = cols_t.as_slice();
    let mut out = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for ki in 0..geo.kh {
            for kj in 0..geo.kw {
                let row = (ci * geo.kh + ki) * geo.kw + kj;
                for oi in 0..oh {
                    let ii = (oi * geo.stride + ki) as isize - geo.pad as isize;
                    if ii < 0 || ii as usize >= h {
                        continue;
                    }
                    let dst_row = ci * h * w + ii as usize * w;
                    let src_row = row * cols + oi * ow;
                    for oj in 0..ow {
                        let jj = (oj * geo.stride + kj) as isize - geo.pad as isize;
                        if jj < 0 || jj as usize >= w {
                            continue;
                        }
                        out[dst_row + jj as usize] += src[src_row + oj];
                    }
                }
            }
        }
    }
    out
}

/// Oracle forward: `y[n] = W₂d · im2col(x[n]) + b`, one sample at a
/// time. Returns the output and the per-sample column matrices.
fn oracle_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geo: ConvGeometry,
) -> (Tensor, Vec<Tensor>) {
    let s = x.shape();
    let (n, c_in, h, w) = (s[0], s[1], s[2], s[3]);
    let ws = weight.shape();
    let c_out = ws[0];
    let (oh, ow) = geo.out_hw(h, w);
    let w2d = weight.reshape(&[c_out, c_in * ws[2] * ws[3]]);
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    let mut caches = Vec::with_capacity(n);
    let bslice = bias.as_slice();
    for ni in 0..n {
        let sample = &x.as_slice()[ni * c_in * h * w..(ni + 1) * c_in * h * w];
        let cols = im2col(sample, c_in, h, w, geo);
        let y = matmul(&w2d, &cols);
        let dst = &mut out[ni * c_out * oh * ow..(ni + 1) * c_out * oh * ow];
        for co in 0..c_out {
            let b = bslice[co];
            let src = &y.as_slice()[co * oh * ow..(co + 1) * oh * ow];
            let d = &mut dst[co * oh * ow..(co + 1) * oh * ow];
            for (o, &v) in d.iter_mut().zip(src) {
                *o = v + b;
            }
        }
        caches.push(cols);
    }
    (Tensor::from_vec(out, &[n, c_out, oh, ow]), caches)
}

/// Oracle backward: per sample `dW += dYₙ·colsₙᵀ`, `db += Σ dYₙ`,
/// `dx[n] = col2im(W₂dᵀ·dYₙ)`. Returns `(dx, dw, db)`.
fn oracle_backward(
    dy: &Tensor,
    weight: &Tensor,
    caches: &[Tensor],
    in_shape: &[usize],
    geo: ConvGeometry,
) -> (Tensor, Tensor, Tensor) {
    let s = dy.shape();
    let (n, c_out, oh, ow) = (s[0], s[1], s[2], s[3]);
    let (c_in, h, w) = (in_shape[1], in_shape[2], in_shape[3]);
    let ws = weight.shape().to_vec();
    let w2d = weight.reshape(&[c_out, ws[1] * ws[2] * ws[3]]);
    let mut dw2d = Tensor::zeros(&[c_out, ws[1] * ws[2] * ws[3]]);
    let mut db = Tensor::zeros(&[c_out]);
    let mut dx = vec![0.0f32; n * c_in * h * w];
    for ni in 0..n {
        let dyn_ = Tensor::from_vec(
            dy.as_slice()[ni * c_out * oh * ow..(ni + 1) * c_out * oh * ow].to_vec(),
            &[c_out, oh * ow],
        );
        dw2d.add_assign(&matmul_a_bt(&dyn_, &caches[ni]));
        for co in 0..c_out {
            let s: f32 = dyn_.as_slice()[co * oh * ow..(co + 1) * oh * ow]
                .iter()
                .sum();
            db.as_mut_slice()[co] += s;
        }
        let dcols = matmul(&transpose(&w2d), &dyn_);
        let dxi = col2im(&dcols, c_in, h, w, geo);
        dx[ni * c_in * h * w..(ni + 1) * c_in * h * w].copy_from_slice(&dxi);
    }
    (
        Tensor::from_vec(dx, &[n, c_in, h, w]),
        dw2d.reshape(&ws),
        db,
    )
}

/// Salt levels for [`fill`].
#[derive(Debug, Clone, Copy)]
enum Salt {
    /// Finite, never zero: every matmul panel takes the fast path.
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
                (Salt::Zeros | Salt::NonFinite, 0..=5) => 0.0,
                (Salt::Zeros | Salt::NonFinite, 6..=11) => -0.0,
                (Salt::NonFinite, 12) => f32::INFINITY,
                (Salt::NonFinite, 13) => f32::NEG_INFINITY,
                (Salt::NonFinite, 14) => f32::NAN,
                _ => v,
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Every element equal by `to_bits`, except that any two NaNs match:
/// IEEE 754 leaves the sign and payload of a NaN result unspecified, and
/// which operand's NaN an `a + b` propagates depends on the instruction
/// the compiler picks for that loop, not on the order of operations.
fn assert_bits_equal(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i} differs: batched {x:?} ({:#010x}) vs per-sample {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Runs one layer both ways and compares `y`, `dx`, `dw` and `db`.
/// The gradients are added onto buffers salted with `±0.0`: each element
/// must be its old value plus the oracle's zero-started total, in one
/// add (a `-0.0` there tells `+= +0.0` from no add at all).
fn compare(geo: ConvGeometry, x: &Tensor, weight: &Tensor, bias: &Tensor, dy: &Tensor, what: &str) {
    let (y, cols) = conv2d_forward(x, weight, bias, geo);
    let (y_ref, caches) = oracle_forward(x, weight, bias, geo);
    assert_bits_equal(&y, &y_ref, &format!("y: {what}"));

    let dw0 = fill(weight.shape(), 0x77, Salt::Zeros);
    let db0 = fill(bias.shape(), 0x78, Salt::Zeros);
    let (mut dw, mut db) = (dw0.clone(), db0.clone());
    let dx = conv2d_backward(dy, weight, &cols, x.shape(), geo, &mut dw, &mut db);
    let (dx_ref, dw_ref, db_ref) = oracle_backward(dy, weight, &caches, x.shape(), geo);
    let added = |start: &Tensor, total: &Tensor| {
        let sums = start.as_slice().iter().zip(total.as_slice());
        Tensor::from_vec(sums.map(|(a, b)| a + b).collect(), start.shape())
    };
    assert_bits_equal(&dx, &dx_ref, &format!("dx: {what}"));
    assert_bits_equal(&dw, &added(&dw0, &dw_ref), &format!("dw: {what}"));
    assert_bits_equal(&db, &added(&db0, &db_ref), &format!("db: {what}"));
}

/// A random layer with `x`, the weights and `dy` salted at the levels
/// of `salts`, in that order, through [`compare`].
fn check(
    geo: ConvGeometry,
    n: usize,
    c_in: usize,
    c_out: usize,
    side: usize,
    seed: u64,
    salts: [Salt; 3],
) {
    let what = format!("{geo:?} n={n} c_in={c_in} c_out={c_out} side={side} {salts:?}");
    let [x_salt, w_salt, dy_salt] = salts;
    let (oh, ow) = geo.out_hw(side, side);
    let x = fill(&[n, c_in, side, side], seed, x_salt);
    let weight = fill(&[c_out, c_in, geo.kh, geo.kw], seed ^ 0x5a5a, w_salt);
    let bias = fill(&[c_out], seed ^ 0x3c3c, Salt::Zeros);
    let dy = fill(&[n, c_out, oh, ow], seed ^ 0xa5a5, dy_salt);
    compare(geo, &x, &weight, &bias, &dy, &what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random layers over every paper geometry, batch and salt level.
    #[test]
    fn batched_conv_is_bit_equal_to_per_sample(
        shape in (0..GEOMETRIES.len(), 0usize..3, 1usize..=9, 1usize..=9, 0usize..5),
        salts in (0usize..3, 0usize..3, 0usize..3),
        seed in 0u64..1 << 60,
    ) {
        let (g, b, c_in, c_out, s) = shape;
        let geo = GEOMETRIES[g];
        let salts = [SALTS[salts.0], SALTS[salts.1], SALTS[salts.2]];
        check(geo, BATCHES[b], c_in, c_out, SIDES[s].max(smallest_side(geo)), seed, salts);
    }
}

/// The deep layers of the 8×8 models, where batching matters most:
/// one output pixel per sample (`P = 1`) at realistic channel counts.
#[test]
fn deep_single_pixel_layers_are_bit_equal() {
    for (gi, &geo) in GEOMETRIES.iter().enumerate() {
        // 3×3 pad 1 and 5×5 pad 2 keep 1×1; 3×3 stride 2 maps 2×2 and
        // 3×3 pad 0 maps 3×3 to 1×1.
        let side = if geo.stride == 2 {
            2
        } else {
            smallest_side(geo)
        };
        for &n in &BATCHES {
            for w_salt in SALTS {
                for dy_salt in SALTS {
                    let salts = [Salt::Zeros, w_salt, dy_salt];
                    check(geo, n, 16, 64, side, 7 + gi as u64, salts);
                }
            }
        }
    }
}

/// 1×1 layers (the MobileNetV2 expand/project convs, whose im2col and
/// col2im are block copies and adds) with weights and gradients full of
/// exact `±0.0`, so `dcols` is built from `-0.0` products: its sums start
/// at `+0.0`, and the fold must add them onto the zeroed `dx`.
#[test]
fn pointwise_layers_with_signed_zeros_are_bit_equal() {
    let geo = GEOMETRIES[2];
    for &n in &BATCHES {
        for side in [1, 2, 5, 16] {
            for (i, salt) in [Salt::Zeros, Salt::NonFinite].into_iter().enumerate() {
                let seed = 40 + side as u64 + i as u64;
                let what = format!("1x1 n={n} side={side} {salt:?}");
                let (c_in, c_out) = (6, 3);
                let x = fill(&[n, c_in, side, side], seed, Salt::Zeros);
                let weight = fill(&[c_out, c_in, 1, 1], seed ^ 0x5a5a, salt);
                let bias = fill(&[c_out], seed ^ 0x3c3c, Salt::Zeros);
                let dy = fill(&[n, c_out, side, side], seed ^ 0xa5a5, Salt::Zeros).map(|v| -v);
                compare(geo, &x, &weight, &bias, &dy, &what);
            }
        }
    }
}

/// 1×1 layers on a 1×1 plane (the deep MobileNetV2 expand/project
/// convs at 8×8 input), whose im2col, output scatter, `dY` gather and
/// col2im are `[n, c] ↔ [c, n]` transposes and whose `dW` has one
/// column per sample. Batches 1, 3 and 16 and channel counts from 1 to
/// past a multiple of 8 reach the transposes' plain copy, their 8-row
/// bands and their leftover rows, at every salt level.
#[test]
fn pointwise_single_pixel_layers_are_bit_equal() {
    let geo = GEOMETRIES[2];
    for &n in &BATCHES {
        for (c_in, c_out) in [(1, 7), (5, 1), (8, 16), (13, 21), (40, 67)] {
            for (i, x_salt) in SALTS.into_iter().enumerate() {
                for (j, w_salt) in SALTS.into_iter().enumerate() {
                    let dy_salt = SALTS[(i + j) % 3];
                    let seed = (n * 1000 + c_in * 10 + 3 * i + j) as u64;
                    check(geo, n, c_in, c_out, 1, seed, [x_salt, w_salt, dy_salt]);
                }
            }
        }
    }
}

/// Layers with dead taps, which read only padding: k×k kernels over a
/// 1×1 plane with `k = 2·pad + 1`, whose only live tap is the centre,
/// and ResNet18-fast's first `layer6` conv (3×3, stride 2, on a 2×2
/// plane; taps 4, 5, 7 and 8 live). The per-sample oracle multiplies
/// every dead tap by `+0.0`, so a non-finite weight that sits only at a
/// dead tap must still make its output channel NaN, and a single `±∞`
/// or NaN in a channel of `dy` must still make that channel's dead-tap
/// `dW` NaN.
#[test]
fn centre_tap_layers_are_bit_equal() {
    // (plane side, k, pad, stride, the tap poisoned in rows 0..4 of the
    // weight: in input channel 0, the last one, the last one, then 0).
    let mut cases = Vec::new();
    for (k, pad) in [(3, 1), (5, 2)] {
        for stride in [1, 2] {
            let centre = pad * k + pad;
            cases.push((1, k, pad, stride, [0, k * k - 1, centre + 1, centre]));
        }
    }
    cases.push((2, 3, 1, 2, [0, 6, 3, 2]));
    for (side, k, pad, stride, taps) in cases {
        let geo = ConvGeometry {
            kh: k,
            kw: k,
            stride,
            pad,
        };
        for &n in &BATCHES {
            for (c_in, c_out) in [(1, 1), (3, 8), (64, 64)] {
                let what = format!("{geo:?} side={side} n={n} c_in={c_in} c_out={c_out}");
                let seed = ((side - 1) * 1000 + k * 100 + stride * 10 + c_in) as u64 + n as u64;
                let x = fill(&[n, c_in, side, side], seed, Salt::Zeros);
                let mut weight = fill(&[c_out, c_in, k, k], seed ^ 0x5a5a, Salt::Zeros);
                let bias = fill(&[c_out], seed ^ 0x3c3c, Salt::Zeros);
                // Every case has a 1×1 output.
                let mut dy = fill(&[n, c_out, 1, 1], seed ^ 0xa5a5, Salt::Zeros);
                // Row co's only non-finite weight.
                let kk = k * k;
                let row = c_in * kk;
                let w = weight.as_mut_slice();
                let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::INFINITY];
                for (co, v) in poison.into_iter().enumerate().take(c_out) {
                    let channel = if co == 1 || co == 2 { c_in - 1 } else { 0 };
                    w[co * row + channel * kk + taps[co]] = v;
                }
                // One non-finite `dy` per poisoned row, in the last
                // sample: ∞ in channel 0, NaN in the last channel.
                let d = dy.as_mut_slice();
                d[(n - 1) * c_out] = f32::INFINITY;
                d[n * c_out - 1] = f32::NAN;
                compare(geo, &x, &weight, &bias, &dy, &what);
            }
        }
    }
}

/// A VGG16-fast first-block layer at training batch 16: many output
/// pixels, full SIMD tiles. The third call has no zero in `x`, the
/// weights or `dy`, so no panel at that width skips.
#[test]
fn wide_early_layer_is_bit_equal() {
    use Salt::{Clean, Zeros};
    check(GEOMETRIES[0], 16, 8, 16, 8, 11, [Zeros, Clean, Zeros]);
    check(GEOMETRIES[1], 16, 8, 16, 8, 12, [Zeros; 3]);
    check(GEOMETRIES[0], 16, 8, 16, 8, 13, [Clean; 3]);
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
