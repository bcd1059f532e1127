//! Depthwise 2-D convolution (one filter per channel), needed by
//! MobileNetV2's inverted residual blocks.

use std::ops::Range;

use adaptivefl_tensor::ops::ConvGeometry;
use adaptivefl_tensor::{init, Tensor};
use rand::Rng;

use crate::layer::{join_name, Layer, ParamKind, ParamVisitor, ParamVisitorMut};

/// Depthwise convolution: channel `c` of the output is the correlation
/// of channel `c` of the input with its own `k×k` filter. Weight shape
/// is `[c, 1, k, k]` so the channel axis is the leading axis, exactly
/// like a dense conv — which keeps prefix-slice width pruning uniform.
///
/// The kernels never test a tap for padding: interior outputs run
/// fixed-size loops and the rest walk tap tables built once per call.
/// Every sum keeps the order of a plain per-output loop, bit for bit
/// (DESIGN.md §10, "Per-channel layers").
#[derive(Debug)]
pub struct DepthwiseConv2d {
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    geo: ConvGeometry,
    cache: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `c` channels with a `k×k`
    /// kernel, Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn new(c: usize, k: usize, stride: usize, pad: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_uniform(&[c, 1, k, k], k * k, rng);
        Self::from_weight(weight, stride, pad)
    }

    /// Creates a depthwise convolution with the given `[c, 1, k, k]`
    /// weight and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not one square kernel per channel, or
    /// if `k == 0` or `stride == 0`.
    pub fn from_weight(weight: Tensor, stride: usize, pad: usize) -> Self {
        let &[c, 1, k, kw] = weight.shape() else {
            panic!("depthwise weight must be [c, 1, k, k]");
        };
        assert_eq!(k, kw, "depthwise kernel must be square");
        assert!(
            k > 0 && stride > 0,
            "conv kernel and stride must be positive"
        );
        DepthwiseConv2d {
            dweight: Tensor::zeros(weight.shape()),
            weight,
            bias: Tensor::zeros(&[c]),
            dbias: Tensor::zeros(&[c]),
            geo: ConvGeometry {
                kh: k,
                kw: k,
                stride,
                pad,
            },
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.weight.shape()[0]
    }
}

/// Fewest interior columns worth a vectorized loop; narrower planes run
/// entirely from the edge tables.
const MIN_INTERIOR: usize = 4;

/// One tap of a table: `[output, input, tap]` in `edge` and `scatter`,
/// `[input, output, tap]` in `dx_edge` (indices into one plane and its
/// kernel).
type Entry = [u32; 3];

/// The geometry of one call and its tap bookkeeping, shared by every
/// plane of the batch.
///
/// `K` is the kernel width when it is known at compile time (3, the
/// MobileNetV2 kernel), or 0 for any other width. With `K > 0` the
/// interior runs in fixed-size loops that unroll, keep accumulators in
/// registers and vectorize over columns; everything else walks tables
/// of taps in accumulation order (with `K = 0`, everything).
///
/// - Forward: outputs in `rows × cols` are interior, the rest `edge`.
/// - Backward with `dx_cols` (stride 1, wide planes): `dW` as the
///   forward, `dX` gathered per input, vectorized over `dx_cols` and
///   from `dx_edge` elsewhere.
/// - Backward without: one pass over `scatter` adds each output's taps
///   onto `dW` and `dX` in output order, like the plain loop.
struct Taps<const K: usize> {
    stride: usize,
    pad: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Output rows whose every `ki` reads an input row.
    rows: Range<usize>,
    /// Output columns whose every `kj` reads an input column.
    cols: Range<usize>,
    /// Taps of the outputs outside `rows × cols`, in `(oi, oj, ki, kj)`
    /// order.
    edge: Vec<Entry>,
    /// `edge[bounds[2·oi]..bounds[2·oi + 1]]` are row `oi`'s outputs
    /// left of `cols` (the whole row outside `rows`),
    /// `edge[bounds[2·oi + 1]..bounds[2·oi + 2]]` those right of it.
    bounds: Vec<usize>,
    /// Input columns whose `dX` runs vectorized (stride 1 only).
    dx_cols: Range<usize>,
    /// Per input row: the output rows that read it, ascending.
    readers_h: Vec<Range<usize>>,
    /// `dX` taps of the inputs outside `dx_cols`, by input, each in
    /// `(oi, oj)` order.
    dx_edge: Vec<Entry>,
    /// Without `dx_cols`: every tap of the plane, in `(oi, oj, ki, kj)`
    /// order.
    scatter: Vec<Entry>,
}

/// The taps `t < k` at which output `o` reads one of `len` inputs.
fn valid(o: usize, len: usize, k: usize, geo: ConvGeometry) -> Range<usize> {
    let at = o * geo.stride;
    let hi = k.min((len + geo.pad).saturating_sub(at));
    geo.pad.saturating_sub(at).min(hi)..hi
}

/// The outputs `o < out` that read input `i` at some tap `t < k`, i.e.
/// `o·stride ∈ [i + pad − (k − 1), i + pad]`, ascending.
fn readers(i: usize, k: usize, out: usize, geo: ConvGeometry) -> Range<usize> {
    let lo = (i + geo.pad + 1).saturating_sub(k).div_ceil(geo.stride);
    let hi = ((i + geo.pad) / geo.stride + 1).min(out);
    lo.min(hi)..hi
}

/// The outputs `o < out` whose every tap `t < k` reads one of `len`
/// inputs, if at least `min` of them.
fn interior(len: usize, out: usize, k: usize, min: usize, geo: ConvGeometry) -> Range<usize> {
    let lo = geo.pad.div_ceil(geo.stride).min(out);
    let hi = ((len + geo.pad + 1).saturating_sub(k).div_ceil(geo.stride)).min(out);
    if hi >= lo + min {
        lo..hi
    } else {
        0..0
    }
}

/// `acc + gy·w`, or exactly `acc` when `gy == 0`. Written as
/// `acc − ((−gy)·w or +0.0)`: `a − (−p)` is `a + p` bit for bit, and
/// subtracting `+0.0` leaves every value (`−0.0` included) unchanged, so
/// the skip is a mask on the product rather than a branch.
#[inline(always)]
fn add_unless_zero(acc: f32, gy: f32, w: f32) -> f32 {
    acc - if gy != 0.0 { -gy * w } else { 0.0 }
}

impl<const K: usize> Taps<K> {
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    fn new(geo: ConvGeometry, h: usize, w: usize) -> Self {
        let (oh, ow) = geo.out_hw(h, w);
        let k = geo.kw;
        assert!(K == 0 || K == k, "kernel width {k} run as {K}");
        let dx_cols = if K > 0 && geo.stride == 1 {
            let lo = (k - 1).saturating_sub(geo.pad).min(w);
            let hi = ow.saturating_sub(geo.pad).min(w);
            if hi >= lo + MIN_INTERIOR {
                lo..hi
            } else {
                0..0
            }
        } else {
            0..0
        };
        let cols = if K == 0 {
            0..0
        } else {
            interior(w, ow, k, MIN_INTERIOR, geo)
        };
        let rows = if cols.is_empty() {
            0..0
        } else {
            interior(h, oh, k, 1, geo)
        };
        let entry = |a: usize, b: usize, t: usize| -> Entry {
            let ix = |v: usize| u32::try_from(v).expect("plane index fits u32");
            [ix(a), ix(b), ix(t)]
        };
        // Appends output (oi, oj)'s taps in (ki, kj) order.
        let push_taps = |table: &mut Vec<Entry>, oi: usize, oj: usize| {
            for ki in valid(oi, h, k, geo) {
                for kj in valid(oj, w, k, geo) {
                    let q = (oi * geo.stride + ki - geo.pad) * w + oj * geo.stride + kj - geo.pad;
                    table.push(entry(oi * ow + oj, q, ki * k + kj));
                }
            }
        };
        let mut edge = Vec::new();
        let mut bounds = vec![0];
        for oi in 0..oh {
            let skip = if rows.contains(&oi) {
                cols.clone()
            } else {
                ow..ow
            };
            for side in [0..skip.start, skip.end..ow] {
                for oj in side {
                    push_taps(&mut edge, oi, oj);
                }
                bounds.push(edge.len());
            }
        }
        let readers_h: Vec<_> = (0..h).map(|i| readers(i, k, oh, geo)).collect();
        let (mut scatter, mut dx_edge) = (Vec::new(), Vec::new());
        if dx_cols.is_empty() {
            for oi in 0..oh {
                for oj in 0..ow {
                    push_taps(&mut scatter, oi, oj);
                }
            }
        } else {
            for (ii, rows_of) in readers_h.iter().enumerate() {
                for jj in (0..dx_cols.start).chain(dx_cols.end..w) {
                    for oi in rows_of.clone() {
                        for oj in readers(jj, k, ow, geo) {
                            let ki = ii + geo.pad - oi * geo.stride;
                            let t = ki * k + jj + geo.pad - oj * geo.stride;
                            dx_edge.push(entry(ii * w + jj, oi * ow + oj, t));
                        }
                    }
                }
            }
        }
        Taps {
            stride: geo.stride,
            pad: geo.pad,
            w,
            oh,
            ow,
            rows,
            cols,
            edge,
            bounds,
            dx_cols,
            readers_h,
            dx_edge,
            scatter,
        }
    }

    /// `edge` entries of row `oi`: left of `cols`, then right of it.
    fn row_edges(&self, oi: usize) -> (&[Entry], &[Entry]) {
        let b = &self.bounds[2 * oi..2 * oi + 3];
        (&self.edge[b[0]..b[1]], &self.edge[b[1]..b[2]])
    }

    /// `y = bias + Σ_taps w·x` for one plane. Every output starts from
    /// the bias and adds its valid taps in `ki`-then-`kj` order; padding
    /// is skipped, never added as zero.
    fn forward_plane(&self, x: &[f32], ker: &[f32], bias: f32, y: &mut [f32]) {
        y.fill(bias);
        for &[p, q, t] in &self.edge {
            y[p as usize] += ker[t as usize] * x[q as usize];
        }
        let Range { start: lo, end: hi } = self.cols;
        let (w, n) = (self.w, hi - lo);
        let wk: [[f32; K]; K] =
            std::array::from_fn(|ki| std::array::from_fn(|kj| ker[ki * K + kj]));
        for oi in self.rows.clone() {
            let dst = &mut y[oi * self.ow + lo..][..n];
            let r0 = (oi * self.stride - self.pad) * w + lo * self.stride - self.pad;
            if self.stride == 1 {
                let xs: [[&[f32]; K]; K] =
                    std::array::from_fn(|ki| std::array::from_fn(|kj| &x[r0 + ki * w + kj..][..n]));
                for (oj, o) in dst.iter_mut().enumerate() {
                    let mut acc = *o;
                    for ki in 0..K {
                        for kj in 0..K {
                            acc += wk[ki][kj] * xs[ki][kj][oj];
                        }
                    }
                    *o = acc;
                }
            } else {
                let xrows: [&[f32]; K] = std::array::from_fn(|ki| &x[r0 + ki * w..]);
                for (oj, o) in dst.iter_mut().enumerate() {
                    let j = oj * self.stride;
                    let mut acc = *o;
                    for ki in 0..K {
                        let win = &xrows[ki][j..j + K];
                        for kj in 0..K {
                            acc += wk[ki][kj] * win[kj];
                        }
                    }
                    *o = acc;
                }
            }
        }
    }

    /// Adds one plane's `dW` and `db` onto `dker` and `db`: each tap and
    /// the bias sum `gy·x` (resp. `gy`) over `oi`, then `oj`, skipping
    /// `gy == 0`. All taps advance together, so their chains overlap.
    fn weight_grad_plane(&self, x: &[f32], g: &[f32], dker: &mut [f32], db: &mut f32) {
        let edge = |dker: &mut [f32], taps: &[Entry]| {
            for &[p, q, t] in taps {
                let t = t as usize;
                dker[t] = add_unless_zero(dker[t], g[p as usize], x[q as usize]);
            }
        };
        let Range { start: lo, end: hi } = self.cols;
        let w = self.w;
        for (oi, grow) in g.chunks_exact(self.ow).enumerate() {
            for &gy in grow {
                *db = add_unless_zero(*db, gy, 1.0);
            }
            let (left, right) = self.row_edges(oi);
            edge(dker, left);
            if self.rows.contains(&oi) {
                // Interior: all K×K taps, accumulators in registers.
                let mut acc: [[f32; K]; K] =
                    std::array::from_fn(|ki| std::array::from_fn(|kj| dker[ki * K + kj]));
                let r0 = (oi * self.stride - self.pad) * w;
                let xrows: [&[f32]; K] = std::array::from_fn(|ki| &x[r0 + ki * w..][..w]);
                for (oj, &gy) in grow[lo..hi].iter().enumerate() {
                    let j = (lo + oj) * self.stride - self.pad;
                    for (row, xrow) in acc.iter_mut().zip(&xrows) {
                        let win = &xrow[j..j + K];
                        for (a, &v) in row.iter_mut().zip(win) {
                            *a = add_unless_zero(*a, gy, v);
                        }
                    }
                }
                for (ki, row) in acc.iter().enumerate() {
                    dker[ki * K..][..K].copy_from_slice(row);
                }
            }
            edge(dker, right);
        }
    }

    /// One plane's whole backward pass from the `edge` table alone: each
    /// output in `(oi, oj)` order adds its taps onto `dW` and scatters
    /// onto `dX`, skipping `gy == 0`, so every sum keeps its order.
    fn backward_plane(
        &self,
        x: &[f32],
        g: &[f32],
        ker: &[f32],
        dker: &mut [f32],
        db: &mut f32,
        dx: &mut [f32],
    ) {
        for &gy in g {
            *db = add_unless_zero(*db, gy, 1.0);
        }
        for &[p, q, t] in &self.scatter {
            let (q, t) = (q as usize, t as usize);
            let gy = g[p as usize];
            dker[t] = add_unless_zero(dker[t], gy, x[q]);
            dx[q] = add_unless_zero(dx[q], gy, ker[t]);
        }
    }

    /// One plane's `dX` into the zeroed `dx`. Each input gradient takes
    /// its contributions in `(oi, oj)` order — `ki`, then `kj`,
    /// descending; `gy == 0` adds nothing.
    fn input_grad_plane(&self, g: &[f32], ker: &[f32], dx: &mut [f32]) {
        for &[q, p, t] in &self.dx_edge {
            let q = q as usize;
            dx[q] = add_unless_zero(dx[q], g[p as usize], ker[t as usize]);
        }
        let Range { start: lo, end: hi } = self.dx_cols;
        let (w, ow, n) = (self.w, self.ow, hi - lo);
        if n == 0 {
            return;
        }
        for (ii, dxrow) in dx.chunks_exact_mut(w).enumerate() {
            let dst = &mut dxrow[lo..hi];
            let readers = self.readers_h[ii].clone();
            // Reader `oj = jj + pad − kj`: kj = K−1 … 0 is oj ascending.
            let g_at = |oi: usize| oi * ow + lo + self.pad + 1 - K;
            let w_rev = |oi: usize| -> [f32; K] {
                let ki = ii + self.pad - oi;
                std::array::from_fn(|m| ker[ki * K + K - 1 - m])
            };
            if readers.len() == K {
                // Every kernel row reads this input row: one pass.
                let gs: [[&[f32]; K]; K] = std::array::from_fn(|r| {
                    let g0 = g_at(readers.start + r);
                    std::array::from_fn(|m| &g[g0 + m..][..n])
                });
                let wr: [[f32; K]; K] = std::array::from_fn(|r| w_rev(readers.start + r));
                for (jj, d) in dst.iter_mut().enumerate() {
                    let mut acc = *d;
                    for r in 0..K {
                        for m in 0..K {
                            acc = add_unless_zero(acc, gs[r][m][jj], wr[r][m]);
                        }
                    }
                    *d = acc;
                }
                continue;
            }
            for oi in readers {
                let g0 = g_at(oi);
                let gs: [&[f32]; K] = std::array::from_fn(|m| &g[g0 + m..][..n]);
                let wr = w_rev(oi);
                for (jj, d) in dst.iter_mut().enumerate() {
                    let mut acc = *d;
                    for m in 0..K {
                        acc = add_unless_zero(acc, gs[m][jj], wr[m]);
                    }
                    *d = acc;
                }
            }
        }
    }
}

impl DepthwiseConv2d {
    fn forward_with<const K: usize>(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "depthwise conv expects NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.channels(), "depthwise channel mismatch");
        let taps = Taps::<K>::new(self.geo, h, w);
        let (oh, ow) = (taps.oh, taps.ow);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let kk = self.geo.kh * self.geo.kw;
        let wv = self.weight.as_slice();
        let bv = self.bias.as_slice();
        let planes = x.as_slice().chunks_exact(h * w);
        for (i, (xin, y)) in planes.zip(out.chunks_exact_mut(oh * ow)).enumerate() {
            let ci = i % c;
            taps.forward_plane(xin, &wv[ci * kk..(ci + 1) * kk], bv[ci], y);
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward_with<const K: usize>(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let taps = Taps::<K>::new(self.geo, h, w);
        let (oh, ow) = (taps.oh, taps.ow);
        assert_eq!(
            dy.shape(),
            [n, c, oh, ow],
            "depthwise backward: dy must be [n, c, oh, ow] of the cached input"
        );
        let mut dx = vec![0.0f32; n * c * h * w];
        let kk = self.geo.kh * self.geo.kw;
        let wv = self.weight.as_slice();
        let dwv = self.dweight.as_mut_slice();
        let dbv = self.dbias.as_mut_slice();
        let planes = x
            .as_slice()
            .chunks_exact(h * w)
            .zip(dx.chunks_exact_mut(h * w));
        for (i, ((xin, dxi), g)) in planes.zip(dy.as_slice().chunks_exact(oh * ow)).enumerate() {
            let ci = i % c;
            let ker = &wv[ci * kk..(ci + 1) * kk];
            let (dker, db) = (&mut dwv[ci * kk..(ci + 1) * kk], &mut dbv[ci]);
            if taps.dx_cols.is_empty() {
                taps.backward_plane(xin, g, ker, dker, db, dxi);
            } else {
                taps.weight_grad_plane(xin, g, dker, db);
                taps.input_grad_plane(g, ker, dxi);
            }
        }
        Tensor::from_vec(dx, x.shape())
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = match self.geo.kh {
            3 => self.forward_with::<3>(&x),
            _ => self.forward_with::<0>(&x),
        };
        self.cache = train.then_some(x);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let x = self
            .cache
            .take()
            .expect("depthwise backward without forward");
        match self.geo.kh {
            3 => self.backward_with::<3>(&x, &dy),
            _ => self.backward_with::<0>(&x, &dy),
        }
    }

    fn visit_params(&self, prefix: &str, v: &mut dyn ParamVisitor) {
        v.visit(
            &join_name(prefix, "weight"),
            ParamKind::Weight,
            &self.weight,
            &self.dweight,
        );
        v.visit(
            &join_name(prefix, "bias"),
            ParamKind::Bias,
            &self.bias,
            &self.dbias,
        );
    }

    fn visit_params_mut(&mut self, prefix: &str, v: &mut dyn ParamVisitorMut) {
        v.visit(
            &join_name(prefix, "weight"),
            ParamKind::Weight,
            &mut self.weight,
            &mut self.dweight,
        );
        v.visit(
            &join_name(prefix, "bias"),
            ParamKind::Bias,
            &mut self.bias,
            &mut self.dbias,
        );
    }

    fn zero_grads(&mut self) {
        self.dweight.fill(0.0);
        self.dbias.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_tensor::rng;

    #[test]
    fn forward_is_per_channel() {
        let mut r = rng::seeded(30);
        let mut dw = DepthwiseConv2d::new(2, 1, 1, 0, &mut r);
        // 1x1 depthwise = per-channel scaling + bias.
        dw.weight = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1]);
        dw.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]);
        let y = dw.forward(x, false);
        assert_eq!(y.as_slice(), &[2.5, 2.5, 2.5, 2.5, 5.5, 5.5, 5.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng::seeded(31);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let x = init::normal(&[1, 2, 4, 4], 1.0, &mut r);
        let y = dw.forward(x.clone(), true);
        let dx = dw.backward(Tensor::ones(y.shape()));
        let eps = 1e-2f32;
        for idx in [0usize, 5, 9, 17] {
            let orig = dw.weight.as_slice()[idx];
            dw.weight.as_mut_slice()[idx] = orig + eps;
            let lp = dw.forward(x.clone(), false).sum();
            dw.weight.as_mut_slice()[idx] = orig - eps;
            let lm = dw.forward(x.clone(), false).sum();
            dw.weight.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw.dweight.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "{num} vs {ana}"
            );
        }
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (dw.forward(xp, false).sum() - dw.forward(xm, false).sum()) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()));
        }
    }

    #[test]
    #[should_panic(expected = "conv kernel and stride must be positive")]
    fn zero_kernel_panics() {
        DepthwiseConv2d::new(1, 0, 1, 0, &mut rng::seeded(35));
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_larger_than_padded_input_panics() {
        let mut r = rng::seeded(33);
        let mut dw = DepthwiseConv2d::new(1, 5, 1, 1, &mut r);
        dw.forward(Tensor::zeros(&[1, 1, 2, 2]), false);
    }

    #[test]
    #[should_panic(expected = "dy must be [n, c, oh, ow]")]
    fn backward_rejects_mismatched_dy() {
        let mut r = rng::seeded(34);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let _ = dw.forward(Tensor::zeros(&[1, 2, 4, 4]), true);
        dw.backward(Tensor::zeros(&[1, 2, 3, 3]));
    }

    #[test]
    #[should_panic(expected = "depthwise backward without forward")]
    fn eval_forward_drops_an_earlier_training_cache() {
        let mut r = rng::seeded(35);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let _ = dw.forward(Tensor::ones(&[1, 2, 4, 4]), true);
        let _ = dw.forward(Tensor::ones(&[1, 2, 4, 4]), false);
        dw.backward(Tensor::ones(&[1, 2, 4, 4]));
    }

    #[test]
    fn stride_two_halves_output() {
        let mut r = rng::seeded(32);
        let mut dw = DepthwiseConv2d::new(3, 3, 2, 1, &mut r);
        let y = dw.forward(Tensor::zeros(&[1, 3, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 3, 4, 4]);
    }
}
