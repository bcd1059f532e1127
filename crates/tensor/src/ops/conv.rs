//! im2col-based 2-D convolution, forward and backward.
//!
//! Input layout is NCHW. Each layer is lowered **once per minibatch**:
//! every sample's receptive fields are unfolded into one column matrix
//! `cols` of shape `[K, n·P]` (`K = c_in·L` for the `L` live taps,
//! `P = oh·ow`; sample `i` owns columns `i·P..(i+1)·P`), so the forward
//! pass is a single `W₂d · cols` and the input gradient a single
//! `W₂dᵀ · dY`. The unfold and its adjoint fold walk a map of contiguous
//! runs per kernel tap, built once per call, in place of per-element
//! bounds checks.
//!
//! Widening the B operand of a matrix product leaves every output
//! element's k-chain (and the zero-skip on `W`) untouched, so the results
//! equal a per-sample lowering bit for bit. The weight and bias
//! gradients keep their per-sample accumulation order (see
//! [`conv2d_backward`] and DESIGN.md §10).
//!
//! A tap is dead when it reads padding at every output, as all taps but
//! the centre do when a square `(2·pad + 1)` kernel meets a 1×1 plane.
//! Dead taps are left out of the lowering: their rows of `cols` would
//! hold only `+0.0`. Their only observable effect, NaN from `∞·0`, is
//! applied as a rule per output channel (DESIGN.md §10, "Taps that read
//! only padding").

use crate::ops::matmul::{matmul, matmul_a_bt, matmul_a_bt_segmented, transpose, transpose_into};
use crate::Tensor;

/// Static geometry of a convolution: kernel, stride, padding and the
/// derived output size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same on both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel or the stride is zero, or if the kernel does
    /// not fit in the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            self.kh > 0 && self.kw > 0 && self.stride > 0,
            "conv kernel and stride must be positive, got {}x{} at stride {}",
            self.kh,
            self.kw,
            self.stride
        );
        let ph = h + 2 * self.pad;
        let pw = w + 2 * self.pad;
        assert!(
            ph >= self.kh && pw >= self.kw,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            ph,
            pw
        );
        (
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        )
    }
}

/// The matrix `W₂d = [c_out, c_in·L]` a layer is lowered with, over the
/// `L` live taps of `map`: a reshape of `weight` when every tap is live,
/// else a gather of the live taps' columns.
fn lowering(weight: &Tensor, map: &TapRuns) -> Tensor {
    let ws = weight.shape();
    let (c_out, c_in, kk) = (ws[0], ws[1], ws[2] * ws[3]);
    if map.live.len() == kk {
        return weight.reshape(&[c_out, c_in * kk]);
    }
    let taps = weight.as_slice().chunks_exact(kk);
    let w2d = taps.flat_map(|taps| map.live.iter().map(|&t| taps[t]));
    Tensor::from_vec(w2d.collect(), &[c_out, c_in * map.live.len()])
}

/// `true` if any element of `v` is `±∞` or NaN (one branch-free pass).
fn any_non_finite(v: &[f32]) -> bool {
    v.iter().fold(false, |acc, x| acc | !x.is_finite())
}

/// One stretch of a tap's unfolded row within a sample's column block:
/// output columns `p..p + len` read input cells `q, q + stride, …` of
/// the sample's plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Run {
    pub(super) p: usize,
    pub(super) q: usize,
    pub(super) len: usize,
}

/// The im2col map of one `(h, w, geo)`, as runs per tap `(ki, kj)` in
/// row-major tap order. Padding cells belong to no run, so a column
/// matrix or input gradient that starts zeroed keeps `+0.0` there, and
/// a tap that reads only padding (a dead tap) owns no run.
/// Runs that continue each other (one output row's end meets the next
/// row's start, in the output and in the input) are merged, so a
/// pointwise layer's single tap is one run over the whole plane. The
/// depthwise kernels ([`super::depthwise`]) walk the same map.
#[derive(Debug)]
pub(super) struct TapRuns {
    runs: Vec<Run>,
    /// Tap `t` owns `runs[starts[t]..starts[t + 1]]`.
    starts: Vec<usize>,
    /// The live taps, those that own a run, ascending. Row `r` of a
    /// column matrix is input channel `r / L`, tap `live[r % L]`.
    live: Vec<usize>,
    stride: usize,
    /// Input cells per plane, `h·w`.
    hw: usize,
    /// Output columns per sample, `oh·ow`.
    p: usize,
}

impl TapRuns {
    pub(super) fn new(h: usize, w: usize, geo: ConvGeometry) -> Self {
        let (oh, ow) = geo.out_hw(h, w);
        let s = geo.stride;
        // Outputs `lo..hi` of a tap at kernel offset `k` read inside an
        // input axis of `len` cells: `0 <= o·s + k - pad < len`.
        let valid = |k: usize, len: usize, out: usize| {
            let lo = geo.pad.saturating_sub(k).div_ceil(s).min(out);
            let hi = (len + geo.pad).saturating_sub(k).div_ceil(s).min(out);
            (lo, hi.max(lo))
        };
        let mut runs: Vec<Run> = Vec::new();
        let mut starts = Vec::with_capacity(geo.kh * geo.kw + 1);
        for ki in 0..geo.kh {
            let (oi0, oi1) = valid(ki, h, oh);
            for kj in 0..geo.kw {
                let (oj0, oj1) = valid(kj, w, ow);
                let first = runs.len();
                starts.push(first);
                if oj0 == oj1 {
                    continue;
                }
                for oi in oi0..oi1 {
                    let run = Run {
                        p: oi * ow + oj0,
                        q: (oi * s + ki - geo.pad) * w + oj0 * s + kj - geo.pad,
                        len: oj1 - oj0,
                    };
                    match runs[first..].last_mut() {
                        Some(last)
                            if last.p + last.len == run.p && last.q + last.len * s == run.q =>
                        {
                            last.len += run.len
                        }
                        _ => runs.push(run),
                    }
                }
            }
        }
        starts.push(runs.len());
        let live = (0..geo.kh * geo.kw)
            .filter(|&t| starts[t] < starts[t + 1])
            .collect();
        TapRuns {
            runs,
            starts,
            live,
            stride: s,
            hw: h * w,
            p: oh * ow,
        }
    }

    pub(super) fn tap(&self, t: usize) -> &[Run] {
        &self.runs[self.starts[t]..self.starts[t + 1]]
    }

    /// `true` when the map is one tap whose one run is the whole plane:
    /// a pointwise layer, or a 1×1 plane under a square `(2·pad + 1)`
    /// kernel, whose only live tap is the centre.
    fn whole_plane(&self) -> bool {
        self.runs
            == [Run {
                p: 0,
                q: 0,
                len: self.hw,
            }]
            && self.p == self.hw
    }

    /// Unfolds the batch `x` `[n, c, h, w]` into the zeroed column
    /// matrix `cols` `[c·L, n·P]` of the `L` live taps, sample `i` in
    /// columns `i·P..(i + 1)·P`.
    fn im2col(&self, x: &[f32], n: usize, c: usize, cols: &mut [f32]) {
        let (hw, p, s, taps) = (self.hw, self.p, self.stride, self.live.len());
        if n * p == 0 || hw == 0 {
            return;
        }
        if self.whole_plane() {
            if p == 1 {
                // `x` is `[n, c]` and `cols` its transpose.
                transpose_into(x, n, c, cols);
                return;
            }
            // One block copy per (sample, channel), in input order.
            for (ni, sample) in x.chunks_exact(c * hw).enumerate() {
                for (ci, plane) in sample.chunks_exact(hw).enumerate() {
                    cols[ci * n * p + ni * p..][..p].copy_from_slice(plane);
                }
            }
            return;
        }
        for (r, row) in cols.chunks_exact_mut(n * p).enumerate() {
            let (ci, t) = (r / taps, self.live[r % taps]);
            for run in self.tap(t) {
                let (p0, q0, len) = (run.p, ci * hw + run.q, run.len);
                for (block, sample) in row.chunks_exact_mut(p).zip(x.chunks_exact(c * hw)) {
                    let dst = &mut block[p0..p0 + len];
                    if s == 1 {
                        dst.copy_from_slice(&sample[q0..q0 + len]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(sample[q0..].iter().step_by(s)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }

    /// Folds the column matrix `dcols` `[c·L, n·P]` into the zeroed
    /// batch gradient `dx` `[n, c, h, w]` (adjoint of
    /// [`TapRuns::im2col`]). Each input cell takes its taps' terms in
    /// `(ki, kj)` order, added onto its `+0.0`: an add, not a copy, even
    /// where one tap covers the cell, since `+0.0 + -0.0` is `+0.0`.
    fn col2im(&self, dcols: &[f32], n: usize, c: usize, dx: &mut [f32]) {
        let (hw, p, s, taps) = (self.hw, self.p, self.stride, self.live.len());
        if n * p == 0 || hw == 0 {
            return;
        }
        if self.whole_plane() {
            if p == 1 {
                // `dx` is `[n, c]`: the transpose of `dcols`, added onto
                // the `+0.0` it held.
                transpose_into(dcols, c, n, dx);
                for d in dx.iter_mut() {
                    *d += 0.0;
                }
                return;
            }
            // One block add per (sample, channel), so `dx` is written in
            // order rather than one sample apart.
            for (ni, sample) in dx.chunks_exact_mut(c * hw).enumerate() {
                for (ci, plane) in sample.chunks_exact_mut(hw).enumerate() {
                    for (d, &v) in plane.iter_mut().zip(&dcols[ci * n * p + ni * p..][..p]) {
                        *d += v;
                    }
                }
            }
            return;
        }
        for (r, row) in dcols.chunks_exact(n * p).enumerate() {
            let (ci, t) = (r / taps, self.live[r % taps]);
            for run in self.tap(t) {
                let (p0, q0, len) = (run.p, ci * hw + run.q, run.len);
                for (block, sample) in row.chunks_exact(p).zip(dx.chunks_exact_mut(c * hw)) {
                    let src = &block[p0..p0 + len];
                    if s == 1 {
                        for (d, &v) in sample[q0..q0 + len].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in sample[q0..].iter_mut().step_by(s).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// * `x` — input `[n, c_in, h, w]`
/// * `weight` — `[c_out, c_in, kh, kw]`
/// * `bias` — `[c_out]`
///
/// Returns the output `[n, c_out, oh, ow]` and the batch column matrix
/// `[K, n·oh·ow]` needed by [`conv2d_backward`]. `K` is `c_in·L` for
/// the `L` taps that read the input at some output: a tap that reads
/// only padding (dead) is left out. All of output channel `co` is NaN
/// if any dead-tap weight of `co` is non-finite (`∞·0`), exactly as the
/// full lowering computes it.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geo: ConvGeometry,
) -> (Tensor, Tensor) {
    let (n, c_in, h, w) = nchw(x);
    let ws = weight.shape();
    assert_eq!(ws.len(), 4, "conv weight must be 4-D");
    let (c_out, wc_in, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
    assert_eq!(c_in, wc_in, "conv in-channel mismatch");
    assert_eq!((kh, kw), (geo.kh, geo.kw), "kernel/geometry mismatch");
    assert_eq!(bias.numel(), c_out, "bias size mismatch");
    let (oh, ow) = geo.out_hw(h, w);
    let map = TapRuns::new(h, w, geo);
    let w2d = lowering(weight, &map);
    let (k, p) = (w2d.shape()[1], oh * ow);
    let np = n * p;

    let mut cols = vec![0.0f32; k * np];
    map.im2col(x.as_slice(), n, c_in, &mut cols);
    let cols = Tensor::from_vec(cols, &[k, np]);
    let y = matmul(&w2d, &cols); // [c_out, n·P]

    let mut out = vec![0.0f32; n * c_out * p];
    let (ys, bs) = (y.as_slice(), bias.as_slice());
    if p == 1 {
        // `out` is `[n, c_out]`, the transpose of `y`, plus the bias.
        transpose_into(ys, c_out, n, &mut out);
        for row in out.chunks_exact_mut(c_out.max(1)) {
            for (o, &b) in row.iter_mut().zip(bs) {
                *o += b;
            }
        }
    } else {
        for (co, &b) in bs.iter().enumerate() {
            for ni in 0..n {
                let src = &ys[co * np + ni * p..co * np + (ni + 1) * p];
                let dst = &mut out[(ni * c_out + co) * p..(ni * c_out + co + 1) * p];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v + b;
                }
            }
        }
    }
    if map.live.len() < kh * kw {
        // The full lowering adds `w·(+0.0)` per dead tap at every
        // output: a no-op on a chain that starts at `+0.0`, unless `w`
        // is `±∞` or NaN.
        for (co, row) in weight.as_slice().chunks_exact(c_in * kh * kw).enumerate() {
            let mut taps = row.iter().enumerate();
            let poisoned = any_non_finite(row)
                && taps.any(|(i, w)| !w.is_finite() && map.tap(i % (kh * kw)).is_empty());
            if poisoned {
                for ni in 0..n {
                    out[(ni * c_out + co) * p..][..p].fill(f32::NAN);
                }
            }
        }
    }
    (Tensor::from_vec(out, &[n, c_out, oh, ow]), cols)
}

/// Backward 2-D convolution given the forward column matrix: adds `dW`
/// and `db` onto `dweight` and `dbias` and returns `dX`.
///
/// `dy` has shape `[n, c_out, oh, ow]`; `cols` and `in_shape` are the
/// column matrix returned by [`conv2d_forward`] and the shape of its
/// input.
///
/// `dX` is one `W₂dᵀ · dY` over the whole batch. `dW` and `db` keep the
/// per-sample order: each sample's sum starts at `0.0` and is added in
/// sample order onto a `+0.0` start, exactly as `n` separate per-sample
/// backward passes summed into a zeroed gradient would. Each element of
/// `dweight` and `dbias` then takes that total in one `+=`.
///
/// Dead taps (see [`conv2d_forward`]) are left out of `W₂d` and `cols`
/// here too. Their entries of `dW` row `co` are `+0.0`, or NaN once any
/// `dY` of channel `co` is non-finite (`∞·0`), as the full lowering
/// computes them.
///
/// # Panics
///
/// Panics on shape inconsistency with the forward pass: `in_shape` not
/// 4-D, a batch size, channel count or output size that does not match
/// `dy` and `weight`, a `cols` of another shape than [`conv2d_forward`]
/// returns for `in_shape`, or gradient buffers of other shapes than
/// `weight` and `[c_out]`.
pub fn conv2d_backward(
    dy: &Tensor,
    weight: &Tensor,
    cols: &Tensor,
    in_shape: &[usize],
    geo: ConvGeometry,
    dweight: &mut Tensor,
    dbias: &mut Tensor,
) -> Tensor {
    let (n, c_out, oh, ow) = nchw(dy);
    assert_eq!(
        in_shape.len(),
        4,
        "conv backward: in_shape must be NCHW, got {in_shape:?}"
    );
    assert_eq!(
        in_shape[0], n,
        "conv backward: in_shape batch {} differs from dy batch {n}",
        in_shape[0]
    );
    let (c_in, h, w) = (in_shape[1], in_shape[2], in_shape[3]);
    let ws = weight.shape();
    assert_eq!(ws.len(), 4, "conv weight must be 4-D");
    assert_eq!(
        ws[1], c_in,
        "conv backward: in_shape channels differ from weight"
    );
    assert_eq!(
        geo.out_hw(h, w),
        (oh, ow),
        "conv backward: dy spatial size does not match in_shape"
    );
    assert_eq!(dweight.shape(), ws, "conv backward: dweight shape");
    assert_eq!(
        dbias.shape(),
        [c_out],
        "conv backward: dbias must be [c_out]"
    );
    let map = TapRuns::new(h, w, geo);
    let w2d = lowering(weight, &map);
    let (k, p) = (w2d.shape()[1], oh * ow);
    let np = n * p;
    assert_eq!(
        cols.shape(),
        [k, np],
        "conv backward: cols must be [K, n·P] = [{k}, {np}]"
    );
    let dys = dy.as_slice();

    // dY gathered channel-major, [c_out, n·P]: sample i in columns i·P.. .
    let mut dyg = vec![0.0f32; c_out * np];
    if p == 1 {
        transpose_into(dys, n, c_out, &mut dyg);
    } else {
        for ni in 0..n {
            for co in 0..c_out {
                dyg[co * np + ni * p..co * np + (ni + 1) * p]
                    .copy_from_slice(&dys[(ni * c_out + co) * p..(ni * c_out + co + 1) * p]);
            }
        }
    }
    let dyg = Tensor::from_vec(dyg, &[c_out, np]);

    // dcols = W₂dᵀ · dY in one product, then one fold for the batch.
    let dcols = matmul(&transpose(&w2d), &dyg); // [K, n·P]
    let mut dx = vec![0.0f32; n * c_in * h * w];
    map.col2im(dcols.as_slice(), n, c_in, &mut dx);

    // dW = ((+0.0 + dY₀·cols₀ᵀ) + dY₁·cols₁ᵀ) + …, one segment per
    // sample. One-column segments make the same sums as one segment
    // over the batch (DESIGN.md §10), which runs faster.
    let dw2d = if p == 1 {
        matmul_a_bt(&dyg, cols)
    } else {
        matmul_a_bt_segmented(&dyg, cols, p)
    }; // [c_out, K]
    let kk = ws[2] * ws[3];
    let (live, dws) = (&map.live, dw2d.as_slice());
    if live.len() == kk {
        for (d, &v) in dweight.as_mut_slice().iter_mut().zip(dws) {
            *d += v;
        }
    } else {
        // Each dead tap's sum is `+0.0 + dY·(+0.0)`: `+0.0`, or NaN
        // once a `dY` of its row is non-finite. One row of sums is laid
        // out over all the taps, then added in one pass.
        let mut sums = vec![0.0f32; c_in * kk];
        let rows = dweight.as_mut_slice().chunks_exact_mut(c_in * kk);
        for (co, row) in rows.enumerate() {
            let dead = if any_non_finite(&dyg.as_slice()[co * np..][..np]) {
                f32::NAN
            } else {
                0.0
            };
            sums.fill(dead);
            for (ci, taps) in sums.chunks_exact_mut(kk).enumerate() {
                let src = &dws[(co * c_in + ci) * live.len()..];
                for (&t, &v) in live.iter().zip(src) {
                    taps[t] = v;
                }
            }
            for (d, &v) in row.iter_mut().zip(&sums) {
                *d += v;
            }
        }
    }
    // db likewise, from per-sample row sums.
    let mut db = vec![0.0f32; c_out];
    for ni in 0..n {
        for co in 0..c_out {
            let row = &dys[(ni * c_out + co) * p..(ni * c_out + co + 1) * p];
            db[co] += row.iter().sum::<f32>();
        }
    }
    for (d, v) in dbias.as_mut_slice().iter_mut().zip(db) {
        *d += v;
    }
    Tensor::from_vec(dx, &[n, c_in, h, w])
}

pub(super) fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 4, "expected NCHW tensor, got {:?}", s);
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`conv2d_backward`] into zeroed gradients: `(dx, dw, db)`.
    fn backward(
        dy: &Tensor,
        weight: &Tensor,
        cols: &Tensor,
        in_shape: &[usize],
        geo: ConvGeometry,
    ) -> (Tensor, Tensor, Tensor) {
        let mut dw = Tensor::zeros(weight.shape());
        let mut db = Tensor::zeros(&[weight.shape()[0]]);
        let dx = conv2d_backward(dy, weight, cols, in_shape, geo, &mut dw, &mut db);
        (dx, dw, db)
    }

    /// A 1×1 kernel at stride 1 without padding.
    const POINTWISE: ConvGeometry = ConvGeometry {
        kh: 1,
        kw: 1,
        stride: 1,
        pad: 0,
    };

    fn geo3() -> ConvGeometry {
        ConvGeometry {
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn out_size_same_padding() {
        assert_eq!(geo3().out_hw(8, 8), (8, 8));
        let g2 = ConvGeometry {
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(g2.out_hw(8, 8), (4, 4));
        let g1 = ConvGeometry {
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        assert_eq!(g1.out_hw(5, 7), (5, 7));
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1 reproduces the input channel.
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let g = ConvGeometry {
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let (y, _) = conv2d_forward(&x, &w, &b, g);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn averaging_kernel_matches_hand_computation() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::full(&[1, 1, 3, 3], 1.0 / 9.0);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, geo3());
        // Centre pixel sees all nine ones.
        assert!((y.at(&[0, 0, 1, 1]) - 1.0).abs() < 1e-6);
        // Corner sees four ones (rest padding).
        assert!((y.at(&[0, 0, 0, 0]) - 4.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::zeros(&[2, 1, 2, 2]);
        let w = Tensor::zeros(&[3, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let g = ConvGeometry {
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let (y, _) = conv2d_forward(&x, &w, &b, g);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[1, 2, 1, 1]), 3.0);
    }

    #[test]
    fn cols_hold_each_sample_in_its_own_column_block() {
        // Two 1x2x2 samples through a 1x1 kernel: cols is [1, 2·4] with
        // sample 0 in columns 0..4 and sample 1 in columns 4..8.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 1, 2, 2]);
        let g = ConvGeometry {
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let (_, cols) = conv2d_forward(&x, &Tensor::ones(&[1, 1, 1, 1]), &Tensor::zeros(&[1]), g);
        assert_eq!(cols.shape(), &[1, 8]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    /// Finite-difference check of the full backward pass.
    #[test]
    fn gradients_match_finite_differences() {
        let geo = ConvGeometry {
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let n = 2;
        let (c_in, h, w_) = (2, 4, 4);
        let c_out = 3;
        let mk = |len: usize, seed: f32| -> Vec<f32> {
            (0..len)
                .map(|i| (i as f32 * 12.9898 + seed).sin() * 0.5)
                .collect()
        };
        let x = Tensor::from_vec(mk(n * c_in * h * w_, 1.0), &[n, c_in, h, w_]);
        let wt = Tensor::from_vec(mk(c_out * c_in * 9, 2.0), &[c_out, c_in, 3, 3]);
        let b = Tensor::from_vec(mk(c_out, 3.0), &[c_out]);

        // Loss = sum(conv(x)) so dy = ones.
        let loss =
            |x: &Tensor, wt: &Tensor, b: &Tensor| -> f32 { conv2d_forward(x, wt, b, geo).0.sum() };
        let (y, cols) = conv2d_forward(&x, &wt, &b, geo);
        let dy = Tensor::ones(y.shape());
        let (dx, dw, db) = backward(&dy, &wt, &cols, x.shape(), geo);

        let eps = 1e-2f32;
        // Check a scattering of weight gradient entries.
        for &idx in &[0usize, 5, 17, 30, c_out * c_in * 9 - 1] {
            let mut wp = wt.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wt.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let ana = dw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW[{idx}] numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient entries.
        for idx in 0..c_out {
            let mut bp = b.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wt, &bp) - loss(&x, &wt, &bm)) / (2.0 * eps);
            let ana = db.as_slice()[idx];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()));
        }
        // Input gradient entries.
        for &idx in &[0usize, 7, 20, n * c_in * h * w_ - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp, &wt, &b) - loss(&xm, &wt, &b)) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()));
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y, with every
        // sample of a batch of three in its own column block.
        let geo = ConvGeometry {
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        let (n, c, h, w) = (3, 2, 5, 5);
        let (oh, ow) = geo.out_hw(h, w);
        let (k, p) = (c * 9, oh * ow);
        let runs = TapRuns::new(h, w, geo);
        let x: Vec<f32> = (0..n * c * h * w)
            .map(|i| (i as f32 * 0.37).cos())
            .collect();
        let mut cols = vec![0.0f32; k * n * p];
        runs.im2col(&x, n, c, &mut cols);
        let y: Vec<f32> = (0..cols.len()).map(|i| (i as f32 * 0.11).sin()).collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut folded = vec![0.0f32; x.len()];
        runs.col2im(&y, n, c, &mut folded);
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn pointwise_col2im_adds_onto_zero() {
        // A 1×1 fold is an add, not a copy: `+0.0 + -0.0` is `+0.0`.
        // Two samples of two 1×2 channels; sample 0 owns columns 0..2 of
        // the [2, 4] column matrix, sample 1 columns 2..4.
        let runs = TapRuns::new(1, 2, POINTWISE);
        assert_eq!(runs.tap(0), [Run { p: 0, q: 0, len: 2 }]);
        let src = [-0.0f32, 1.5, 9.0, 9.0, -0.0, 2.0, 9.0, 9.0];
        let mut out = [0.0f32; 8];
        runs.col2im(&src, 2, 2, &mut out);
        assert_eq!(
            out.map(f32::to_bits),
            [0.0f32, 1.5, 0.0, 2.0, 9.0, 9.0, 9.0, 9.0].map(f32::to_bits)
        );
        let mut cols = [7.0f32; 8];
        runs.im2col(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 2, 2, &mut cols);
        assert_eq!(cols, [1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]);

        // On a 1×1 plane the fold is a transpose, still added onto
        // `+0.0`: three samples of two channels, `dcols` `[2, 3]`.
        let runs = TapRuns::new(1, 1, POINTWISE);
        let src = [-0.0f32, 1.5, -2.0, 3.0, -0.0, f32::INFINITY];
        let mut out = [0.0f32; 6];
        runs.col2im(&src, 3, 2, &mut out);
        assert_eq!(
            out.map(f32::to_bits),
            [0.0f32, 3.0, 1.5, 0.0, -2.0, f32::INFINITY].map(f32::to_bits)
        );
        let mut cols = [7.0f32; 6];
        runs.im2col(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2, &mut cols);
        assert_eq!(cols, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn tap_runs_skip_padding_and_merge_rows() {
        // 3×3 pad 1 over a 3×4 plane: the centre tap reads every cell in
        // one run; the top-left tap starts at output (1, 1), one run per
        // output row; the top-centre tap's rows continue each other.
        let runs = TapRuns::new(3, 4, geo3());
        assert_eq!(runs.live, (0..9).collect::<Vec<_>>());
        assert_eq!(
            runs.tap(4),
            [Run {
                p: 0,
                q: 0,
                len: 12
            }]
        );
        assert_eq!(
            runs.tap(0),
            [Run { p: 5, q: 0, len: 3 }, Run { p: 9, q: 4, len: 3 }]
        );
        assert_eq!(runs.tap(1), [Run { p: 4, q: 0, len: 8 }]);
        // At stride 2 a run steps through every other input column, and
        // skips input rows between output rows, so none merge.
        let g2 = ConvGeometry {
            stride: 2,
            ..geo3()
        };
        let runs = TapRuns::new(5, 5, g2);
        assert_eq!(
            runs.tap(4),
            [
                Run { p: 0, q: 0, len: 3 },
                Run {
                    p: 3,
                    q: 10,
                    len: 3
                },
                Run {
                    p: 6,
                    q: 20,
                    len: 3
                }
            ]
        );
        assert_eq!(
            runs.tap(0),
            [
                Run { p: 4, q: 6, len: 2 },
                Run {
                    p: 7,
                    q: 16,
                    len: 2
                }
            ]
        );
        // On a 2×2 plane at stride 2 the one output reads padding at
        // every tap of the top row and the left column: those are dead.
        let runs = TapRuns::new(2, 2, g2);
        assert_eq!(runs.live, [4, 5, 7, 8]);
        assert!(runs.tap(0).is_empty() && runs.tap(6).is_empty());
    }

    #[test]
    #[should_panic(expected = "kernel and stride must be positive")]
    fn out_size_rejects_zero_stride() {
        let g = ConvGeometry {
            stride: 0,
            ..geo3()
        };
        g.out_hw(4, 4);
    }

    /// Deterministic values in `[-2, 2)` with every fifth one `±0.0`.
    fn salted(len: usize, seed: f32) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 5 {
                0 => 0.0,
                3 if i % 2 == 0 => -0.0,
                _ => (i as f32 * 12.9898 + seed).sin() * 2.0,
            })
            .collect()
    }

    #[test]
    fn centre_only_conv_is_the_pointwise_conv_of_its_centre_tap() {
        let (n, c_in, c_out) = (3, 5, 6);
        for (k, pad) in [(3, 1), (5, 2)] {
            for stride in [1, 2] {
                let geo = ConvGeometry {
                    kh: k,
                    kw: k,
                    stride,
                    pad,
                };
                let x = Tensor::from_vec(salted(n * c_in, 1.0), &[n, c_in, 1, 1]);
                let wt = Tensor::from_vec(salted(c_out * c_in * k * k, 2.0), &[c_out, c_in, k, k]);
                let b = Tensor::from_vec(salted(c_out, 3.0), &[c_out]);
                let centre = pad * k + pad;
                let wc: Vec<f32> = wt.as_slice().chunks(k * k).map(|t| t[centre]).collect();
                let wc = Tensor::from_vec(wc, &[c_out, c_in, 1, 1]);

                let (y, cols) = conv2d_forward(&x, &wt, &b, geo);
                let (y_pw, cols_pw) = conv2d_forward(&x, &wc, &b, POINTWISE);
                assert_eq!(cols.shape(), &[c_in, n]);
                assert_eq!(cols.as_slice(), cols_pw.as_slice());
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&y_pw), "y: k={k} stride={stride}");

                let dy = Tensor::from_vec(salted(n * c_out, 4.0), y.shape());
                let (dx, dw, db) = backward(&dy, &wt, &cols, x.shape(), geo);
                let (dx_pw, dw_pw, db_pw) = backward(&dy, &wc, &cols_pw, x.shape(), POINTWISE);
                assert_eq!(bits(&dx), bits(&dx_pw), "dx: k={k} stride={stride}");
                assert_eq!(bits(&db), bits(&db_pw), "db: k={k} stride={stride}");
                for (i, (taps, &v)) in dw
                    .as_slice()
                    .chunks(k * k)
                    .zip(dw_pw.as_slice())
                    .enumerate()
                {
                    assert_eq!(taps[centre].to_bits(), v.to_bits(), "dw centre {i}");
                    for (t, &d) in taps.iter().enumerate().filter(|&(t, _)| t != centre) {
                        assert_eq!(d.to_bits(), 0, "dw tap {t} of {i} must be +0.0");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cols must be [K, n·P] = [2, 3]")]
    fn centre_only_backward_rejects_full_width_cols() {
        let x = Tensor::ones(&[3, 2, 1, 1]);
        let w = Tensor::ones(&[4, 2, 3, 3]);
        let (y, _) = conv2d_forward(&x, &w, &Tensor::zeros(&[4]), geo3());
        let cols = Tensor::zeros(&[2 * 9, 3]);
        backward(&Tensor::ones(y.shape()), &w, &cols, x.shape(), geo3());
    }

    fn backward_fixture() -> (Tensor, Tensor, Tensor) {
        let x = Tensor::ones(&[2, 1, 3, 3]);
        let w = Tensor::ones(&[2, 1, 3, 3]);
        let (y, cols) = conv2d_forward(&x, &w, &Tensor::zeros(&[2]), geo3());
        (Tensor::ones(y.shape()), w, cols)
    }

    #[test]
    #[should_panic(expected = "in_shape must be NCHW")]
    fn backward_rejects_short_in_shape() {
        let (dy, w, cols) = backward_fixture();
        backward(&dy, &w, &cols, &[2, 1, 3], geo3());
    }

    #[test]
    #[should_panic(expected = "differs from dy batch")]
    fn backward_rejects_batch_mismatch() {
        let (dy, w, cols) = backward_fixture();
        backward(&dy, &w, &cols, &[3, 1, 3, 3], geo3());
    }

    #[test]
    #[should_panic(expected = "channels differ from weight")]
    fn backward_rejects_channel_mismatch() {
        let (dy, w, cols) = backward_fixture();
        backward(&dy, &w, &cols, &[2, 2, 3, 3], geo3());
    }

    #[test]
    #[should_panic(expected = "spatial size does not match")]
    fn backward_rejects_spatial_mismatch() {
        let (dy, w, cols) = backward_fixture();
        backward(&dy, &w, &cols, &[2, 1, 4, 4], geo3());
    }

    #[test]
    #[should_panic(expected = "cols must be [K, n·P]")]
    fn backward_rejects_wrong_cols_shape() {
        let (dy, w, _) = backward_fixture();
        let cols = Tensor::zeros(&[9, 9]);
        backward(&dy, &w, &cols, &[2, 1, 3, 3], geo3());
    }

    #[test]
    #[should_panic(expected = "dweight shape")]
    fn backward_rejects_wrong_gradient_shape() {
        let (dy, w, cols) = backward_fixture();
        let (mut dw, mut db) = (Tensor::zeros(&[2, 1, 1, 1]), Tensor::zeros(&[2]));
        conv2d_backward(&dy, &w, &cols, &[2, 1, 3, 3], geo3(), &mut dw, &mut db);
    }

    #[test]
    fn one_pixel_plane_without_output_channels() {
        let x = Tensor::ones(&[3, 2, 1, 1]);
        let w = Tensor::zeros(&[0, 2, 1, 1]);
        let (y, cols) = conv2d_forward(&x, &w, &Tensor::zeros(&[0]), POINTWISE);
        assert_eq!(y.shape(), &[3, 0, 1, 1]);
        let (dx, dw, db) = backward(&y, &w, &cols, x.shape(), POINTWISE);
        assert_eq!(dx, Tensor::zeros(&[3, 2, 1, 1]));
        assert_eq!((dw.numel(), db.numel()), (0, 0));
    }
}
