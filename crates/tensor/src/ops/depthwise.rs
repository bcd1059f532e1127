//! Depthwise 2-D convolution (one `kh×kw` filter per channel), forward
//! and backward, driven by the tap-run map of the conv lowering.
//!
//! Nothing is lowered to a matrix. Each sample is transposed
//! channel-last (`[h·w, c]`) into a buffer reused across the batch, so
//! one step of a run updates every channel of one cell with contiguous,
//! vectorizable loads: channels are the SIMD lanes, and no lane's sum is
//! reordered. Every sum keeps the order of a plain
//! per-output loop, bit for bit (DESIGN.md §10, "Per-channel layers"):
//!
//! - **forward:** `y = bias`, then for each tap in `(ki, kj)` order,
//!   `y[run] += w_t·x[run]`;
//! - **`dW`:** each tap's chain walks its runs in ascending output
//!   order, samples outer; `db` walks the outputs in order. Terms with
//!   `gy == 0` are skipped;
//! - **`dX`:** the taps in reverse order, so an input's readers arrive
//!   in ascending `(oi, oj)`. Within one tap an input has at most one
//!   reader.

use super::conv::{nchw, ConvGeometry, TapRuns};
use super::matmul::transpose_into;
use crate::Tensor;

/// `acc + gy·w`, or exactly `acc` when `gy == 0`. Written as
/// `acc − ((−gy)·w masked to +0.0)`: `a − (−p)` is `a + p` bit for bit,
/// and subtracting `+0.0` leaves every value (`−0.0` included)
/// unchanged. The skip is a bit mask on the product, not a branch or a
/// select, so the loops over channels vectorize.
#[inline(always)]
fn add_unless_zero(acc: f32, gy: f32, w: f32) -> f32 {
    let keep = u32::from(gy != 0.0).wrapping_neg();
    acc - f32::from_bits((-gy * w).to_bits() & keep)
}

/// Checks `weight` `[c, 1, kh, kw]` against `x` `[n, c, h, w]` and
/// `geo`; returns `(n, c, h, w)`.
fn shapes(x: &Tensor, weight: &Tensor, geo: ConvGeometry) -> (usize, usize, usize, usize) {
    let (n, c, h, w) = nchw(x);
    assert_eq!(
        weight.shape(),
        [c, 1, geo.kh, geo.kw],
        "depthwise channel mismatch: weight must be [c, 1, kh, kw] for {c} channels"
    );
    (n, c, h, w)
}

/// Forward depthwise convolution: channel `c` of the output `[n, c, oh,
/// ow]` is the correlation of channel `c` of `x` `[n, c, h, w]` with
/// its own filter `weight[c]` (`[c, 1, kh, kw]`), plus `bias[c]`.
///
/// # Panics
///
/// Panics on any shape inconsistency, or if the kernel does not fit in
/// the padded input.
pub fn depthwise_forward(x: &Tensor, weight: &Tensor, bias: &Tensor, geo: ConvGeometry) -> Tensor {
    let (n, c, h, w) = shapes(x, weight, geo);
    assert_eq!(bias.shape(), [c], "depthwise bias must be [c]");
    let (oh, ow) = geo.out_hw(h, w);
    let runs = TapRuns::new(h, w, geo);
    let (s, kk, hw, p) = (geo.stride, geo.kh * geo.kw, h * w, oh * ow);
    let mut wt = vec![0.0f32; kk * c];
    transpose_into(weight.as_slice(), c, kk, &mut wt);
    let (mut xs, mut ys) = (vec![0.0f32; hw * c], vec![0.0f32; p * c]);
    let mut y = vec![0.0f32; n * c * p];
    if c > 0 {
        for (xn, yn) in x
            .as_slice()
            .chunks_exact(c * hw)
            .zip(y.chunks_exact_mut(c * p))
        {
            transpose_into(xn, c, hw, &mut xs);
            for cell in ys.chunks_exact_mut(c) {
                cell.copy_from_slice(bias.as_slice());
            }
            for (t, wk) in wt.chunks_exact(c).enumerate() {
                for run in runs.tap(t) {
                    for m in 0..run.len {
                        let yo = &mut ys[(run.p + m) * c..][..c];
                        let xi = &xs[(run.q + m * s) * c..][..c];
                        for ((y, &w), &v) in yo.iter_mut().zip(wk).zip(xi) {
                            *y += w * v;
                        }
                    }
                }
            }
            transpose_into(&ys, p, c, yn);
        }
    }
    Tensor::from_vec(y, &[n, c, oh, ow])
}

/// Backward depthwise convolution of the input `x` under the output
/// gradient `dy`: adds `dW` and `db` onto `dweight` and `dbias`, each
/// chain continuing from the value there, and returns `dX`.
///
/// # Panics
///
/// Panics on any shape inconsistency with [`depthwise_forward`].
pub fn depthwise_backward(
    x: &Tensor,
    dy: &Tensor,
    weight: &Tensor,
    geo: ConvGeometry,
    dweight: &mut Tensor,
    dbias: &mut Tensor,
) -> Tensor {
    let (n, c, h, w) = shapes(x, weight, geo);
    let (oh, ow) = geo.out_hw(h, w);
    assert_eq!(
        dy.shape(),
        [n, c, oh, ow],
        "depthwise backward: dy must be [n, c, oh, ow] of the input"
    );
    assert_eq!(dweight.shape(), weight.shape(), "depthwise dweight shape");
    assert_eq!(dbias.shape(), [c], "depthwise dbias must be [c]");
    let runs = TapRuns::new(h, w, geo);
    let (s, kk, hw, p) = (geo.stride, geo.kh * geo.kw, h * w, oh * ow);
    let (mut wt, mut dwt) = (vec![0.0f32; kk * c], vec![0.0f32; kk * c]);
    transpose_into(weight.as_slice(), c, kk, &mut wt);
    transpose_into(dweight.as_slice(), c, kk, &mut dwt);
    let (mut xs, mut gs, mut dxs) = (vec![0.0; hw * c], vec![0.0; p * c], vec![0.0; hw * c]);
    let mut dx = vec![0.0f32; n * c * hw];
    let db = dbias.as_mut_slice();
    if c > 0 {
        let samples = x
            .as_slice()
            .chunks_exact(c * hw)
            .zip(dy.as_slice().chunks_exact(c * p));
        for ((xn, gn), dxn) in samples.zip(dx.chunks_exact_mut(c * hw)) {
            transpose_into(xn, c, hw, &mut xs);
            transpose_into(gn, c, p, &mut gs);
            for g in gs.chunks_exact(c) {
                for (b, &gy) in db.iter_mut().zip(g) {
                    *b = add_unless_zero(*b, gy, 1.0);
                }
            }
            for (t, dwk) in dwt.chunks_exact_mut(c).enumerate() {
                for run in runs.tap(t) {
                    for m in 0..run.len {
                        let g = &gs[(run.p + m) * c..][..c];
                        let xi = &xs[(run.q + m * s) * c..][..c];
                        for ((d, &gy), &v) in dwk.iter_mut().zip(g).zip(xi) {
                            *d = add_unless_zero(*d, gy, v);
                        }
                    }
                }
            }
            dxs.fill(0.0);
            for (t, wk) in wt.chunks_exact(c).enumerate().rev() {
                for run in runs.tap(t) {
                    for m in 0..run.len {
                        let g = &gs[(run.p + m) * c..][..c];
                        let dxi = &mut dxs[(run.q + m * s) * c..][..c];
                        for ((d, &gy), &w) in dxi.iter_mut().zip(g).zip(wk) {
                            *d = add_unless_zero(*d, gy, w);
                        }
                    }
                }
            }
            transpose_into(&dxs, hw, c, dxn);
        }
    }
    transpose_into(&dwt, kk, c, dweight.as_mut_slice());
    Tensor::from_vec(dx, x.shape())
}
