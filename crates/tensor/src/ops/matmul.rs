//! Dense matrix multiplication kernels.
//!
//! Two products, `A·B` and `A·Bᵀ`, each ship in two implementations
//! that are **bit-identical** by construction (see DESIGN.md §10):
//!
//! * a *reference* kernel — the original scalar loops, kept verbatim as
//!   the semantic ground truth;
//! * a *blocked* kernel — the default, which processes `MR`-row panels
//!   of the output with the accumulators held in registers for the
//!   whole k-loop. Each register tile has one safe-Rust source, which
//!   `#[target_feature]` wrappers compile for AVX-512 and AVX2 on
//!   x86-64 (picked at run time) and every other target runs as is.
//!   Rust never contracts `a * b + c` into an FMA, whose single
//!   rounding would change results, so each vector lane performs the
//!   reference's multiply, then its add.
//!
//! Blocking only reorders work **across independent output elements**;
//! for every single output element the k-accumulation order (and the
//! skip-on-zero rule of the `A·B` reference) is preserved exactly, so
//! no floating-point sum is ever re-associated and the results match
//! the reference bit for bit. Every full A panel takes the branchless
//! register tile, which adds the `0·b` terms the reference skips. A chain
//! that starts at `+0.0` never holds `-0.0`, so adding `0·b` with finite
//! `b` changes nothing; only `0·(±∞ or NaN)` does, and it leaves NaN.
//! A post-check therefore recomputes with the reference row loop just
//! the rows whose A row holds a zero and whose output holds a NaN.
//! `crates/tensor/tests/kernel_diff.rs` asserts the equivalence
//! differentially with `f32::to_bits`.
//!
//! `Aᵀ·B` is [`matmul`] on a [`transpose`]d copy of `A`: every output
//! element is the same increasing-k chain, with the same skip on
//! `a[k][i] == 0`, as a k-outer loop over the rows of `A` and `B`. The
//! segmented `A·Bᵀ` ([`matmul_a_bt_segmented`]) is the sum of
//! per-segment `A·Bᵀ` products, each restarted from `0.0`, which the
//! batched convolution uses for its weight gradient; the blocked plain
//! `A·Bᵀ` is its one-segment case.
//!
//! Setting `TENSOR_NAIVE=1` in the environment forces the reference
//! kernels at run time (read once per process).

use std::sync::OnceLock;

use crate::Tensor;

/// Rows per register panel.
const MR: usize = 4;
/// Columns per segmented `A·Bᵀ` tile, and rows per B panel it stages
/// (its `2·MR·NR` accumulators fit the baseline x86-64 / aarch64
/// vector register files).
const NR: usize = 8;
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
/// Columns of the AVX-512 segmented `A·Bᵀ` tile for short segments, as
/// wide as the AVX-512 `A·B` tile (its `2·MR·WIDE` accumulators take 16
/// of the 32 zmm registers).
const WIDE: usize = 32;
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
/// The longest segment that takes the [`WIDE`] tile.
const SHORT_SEG: usize = 4;
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
/// The longest shared dimension that takes the [`WIDE`] tile whatever
/// its segments: the weight gradient of a conv on a 1×1 plane, one
/// segment over a training batch.
const SHORT_K: usize = 16;

/// `true` when `TENSOR_NAIVE` is set (to anything but `0`/empty) and the
/// public entry points dispatch to the reference kernels.
///
/// The variable is read once per process; changing it later has no
/// effect.
pub fn naive_kernels_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("TENSOR_NAIVE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}

/// The widest vector ISA the tiles are compiled for that the running
/// CPU supports, detected once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}

/// `C = A · B` for row-major 2-D tensors.
///
/// Dispatches to [`matmul_blocked`] unless `TENSOR_NAIVE=1` selects
/// [`matmul_reference`]; the two are bit-identical.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the inner dimensions differ.
///
/// # Example
///
/// ```
/// use adaptivefl_tensor::{ops::matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// assert_eq!(matmul(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    if naive_kernels_forced() {
        matmul_reference(a, b)
    } else {
        matmul_blocked(a, b)
    }
}

/// `C = A · Bᵀ` without materialising the transpose.
///
/// Dispatches like [`matmul`].
///
/// # Panics
///
/// Panics if the operands are not 2-D or `A.cols != B.cols`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    if naive_kernels_forced() {
        matmul_a_bt_reference(a, b)
    } else {
        matmul_a_bt_blocked(a, b)
    }
}

/// `Aᵀ` of a row-major 2-D tensor, as a copy: element `(j, i)` of the
/// result holds the bits of `a[i][j]`.
///
/// `matmul(&transpose(a), b)` is `Aᵀ·B`.
///
/// # Panics
///
/// Panics if `a` is not 2-D.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "transpose");
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.as_slice(), m, n, &mut out);
    Tensor::from_vec(out, &[n, m])
}

/// Writes the row-major `[rows, cols]` matrix `src` into `dst` as
/// `[cols, rows]`.
pub(super) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    let (src, dst) = (&src[..rows * cols], &mut dst[..rows * cols]);
    if rows <= 1 || cols <= 1 {
        // A row or a column (or nothing): the same elements in the same
        // order.
        dst.copy_from_slice(src);
        return;
    }
    // Bands of eight rows, then one band each of four, two and one for
    // the rows left over.
    let mut i0 = 0;
    while i0 + 8 <= rows {
        transpose_band::<8>(src, rows, cols, dst, i0);
        i0 += 8;
    }
    if rows - i0 >= 4 {
        transpose_band::<4>(src, rows, cols, dst, i0);
        i0 += 4;
    }
    if rows - i0 >= 2 {
        transpose_band::<2>(src, rows, cols, dst, i0);
        i0 += 2;
    }
    if rows > i0 {
        transpose_band::<1>(src, rows, cols, dst, i0);
    }
}

/// Rows `i0..i0 + R` of [`transpose_into`]: each column of the band is
/// gathered into one `R`-wide store.
#[inline(always)]
fn transpose_band<const R: usize>(
    src: &[f32],
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    i0: usize,
) {
    let band = &src[i0 * cols..(i0 + R) * cols];
    let r: [&[f32]; R] = std::array::from_fn(|ii| &band[ii * cols..(ii + 1) * cols]);
    for j in 0..cols {
        let column: [f32; R] = std::array::from_fn(|ii| r[ii][j]);
        dst[j * rows + i0..][..R].copy_from_slice(&column);
    }
}

/// Reference `C = A · B`: the original cache-friendly `i-k-j` scalar
/// loops, kept as the bit-exact ground truth for the blocked kernel.
///
/// # Panics
///
/// See [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for i in 0..m {
        matmul_row_reference(&av[i * k..(i + 1) * k], bv, &mut out[i * n..(i + 1) * n]);
    }
    Tensor::from_vec(out, &[m, n])
}

/// One output row of [`matmul_reference`]: `orow += Σ_k a[k]·B[k,:]`
/// with the skip-on-zero rule. Shared with the blocked kernels' ragged
/// rows and [`restore_zero_skips`], so both paths are the same code.
#[inline]
fn matmul_row_reference(arow: &[f32], bv: &[f32], orow: &mut [f32]) {
    let n = orow.len();
    for (kk, &aik) in arow.iter().enumerate() {
        if aik == 0.0 {
            continue;
        }
        let brow = &bv[kk * n..(kk + 1) * n];
        for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
            *o += aik * bkj;
        }
    }
}

/// Reference `C = A · Bᵀ`: the original `i-j-k` dot-product loops. Note
/// this kernel has **no** skip-on-zero — the blocked variant must not
/// introduce one.
///
/// # Panics
///
/// See [`matmul_a_bt`].
pub fn matmul_a_bt_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_a_bt lhs");
    let (n, k2) = dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt shared dim {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `C = A · B`, bit-identical to [`matmul_reference`].
///
/// Works in `MR`-row panels. Every full panel goes to a branchless
/// register tile (`matmul_panel_tiles`, vectorised per ISA), which
/// adds the `0·b` terms the reference skips. Such a term can change an
/// output row only by making it NaN (`0·∞`, `0·NaN`), so a post-check
/// recomputes by the reference row loop each row whose A row holds a
/// zero and whose output holds a NaN (DESIGN.md §10). The ragged bottom
/// rows run the reference row loop itself. Within every output element
/// the additions happen in strictly increasing k either way, so no sum
/// is re-associated.
///
/// # Panics
///
/// See [`matmul`].
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    let isa = isa();
    let mut i0 = 0;
    while i0 < m {
        let mh = MR.min(m - i0);
        let apanel = &av[i0 * k..(i0 + mh) * k];
        if mh == MR {
            matmul_panel(isa, apanel, bv, &mut out, i0, k, n);
            restore_zero_skips(apanel, bv, &mut out[i0 * n..(i0 + MR) * n], k);
        } else {
            for ii in 0..mh {
                let i = i0 + ii;
                matmul_row_reference(&av[i * k..(i + 1) * k], bv, &mut out[i * n..(i + 1) * n]);
            }
        }
        i0 += MR;
    }
    Tensor::from_vec(out, &[m, n])
}

/// Runs the `A·B` tile source at the widest vector width `isa` offers
/// on one full `MR`-row panel: rows `i0..i0 + MR` of `out` become
/// `apanel · B`, every `0·b` term included.
#[allow(unsafe_code)]
fn matmul_panel(
    isa: Isa,
    apanel: &[f32],
    bv: &[f32],
    out: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` verified the feature at run time.
        Isa::Avx512 => unsafe { matmul_panel_avx512(apanel, bv, out, i0, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { matmul_panel_avx2(apanel, bv, out, i0, k, n) },
        Isa::Portable => matmul_panel_tiles::<8, 4>(apanel, bv, out, i0, k, n),
    }
}

/// [`matmul_panel_tiles`] compiled for AVX-512: 32-, then 16-wide tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn matmul_panel_avx512(apanel: &[f32], bv: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    matmul_panel_tiles::<32, 16>(apanel, bv, out, i0, k, n)
}

/// [`matmul_panel_tiles`] compiled for AVX2: 16-, then 8-wide tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_panel_avx2(apanel: &[f32], bv: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    matmul_panel_tiles::<16, 8>(apanel, bv, out, i0, k, n)
}

/// Gives a panel computed by [`matmul_panel`] the reference's
/// skip-on-zero. `opanel` holds the panel's `MR` output rows.
///
/// A k-chain starts at `+0.0` and, under round-to-nearest, can never
/// hold `-0.0` (a sum is `-0.0` only when both addends are). So adding
/// a skipped `0·b` with finite `b`, which is `±0.0`, changes no chain.
/// Only `0·(±∞ or NaN)` differs, and that term makes the chain NaN for
/// good. A row whose A row holds no zero, or whose output holds no NaN,
/// is therefore already the reference's; any other row is zeroed and
/// recomputed by [`matmul_row_reference`]. The A row is tested first,
/// so a panel without zeros never scans its output.
fn restore_zero_skips(apanel: &[f32], bv: &[f32], opanel: &mut [f32], k: usize) {
    let n = opanel.len() / MR;
    for ii in 0..MR {
        let orow = &mut opanel[ii * n..(ii + 1) * n];
        let arow = &apanel[ii * k..(ii + 1) * k];
        if arow.contains(&0.0) && orow.iter().fold(false, |acc, v| acc | v.is_nan()) {
            orow.fill(0.0);
            matmul_row_reference(arow, bv, orow);
        }
    }
}

/// The one source of the `A·B` register tile, for one full `MR`-row
/// panel of [`matmul_blocked`]: rows `i0..i0 + MR` of `out` become
/// `apanel · B`. `MR × W` tiles run first, then `MR × H` tiles, each
/// holding its accumulators across the whole k-loop with no branches;
/// every column left over is one serial k-chain per row.
///
/// Each lane is one output element's chain, in increasing k, of a
/// multiply and then an add (Rust never contracts them into an FMA), so
/// every width performs the reference's roundings in its order.
#[inline(always)]
fn matmul_panel_tiles<const W: usize, const H: usize>(
    apanel: &[f32],
    bv: &[f32],
    out: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    let arows: [&[f32]; MR] = std::array::from_fn(|ii| &apanel[ii * k..(ii + 1) * k]);
    let j0 = matmul_tiles::<W>(arows, bv, out, i0, 0, n);
    let j0 = matmul_tiles::<H>(arows, bv, out, i0, j0, n);
    for j in j0..n {
        for (ii, arow) in arows.iter().enumerate() {
            let mut acc = 0.0f32;
            for (&aik, brow) in arow.iter().zip(bv.chunks_exact(n)) {
                acc += aik * brow[j];
            }
            out[(i0 + ii) * n + j] = acc;
        }
    }
}

/// The `MR × W` tiles of [`matmul_panel_tiles`], from column `j0` while
/// `W` columns remain. Returns the first column they leave.
#[inline(always)]
fn matmul_tiles<const W: usize>(
    arows: [&[f32]; MR],
    bv: &[f32],
    out: &mut [f32],
    i0: usize,
    mut j0: usize,
    n: usize,
) -> usize {
    let [a0, a1, a2, a3] = arows;
    while j0 + W <= n {
        let mut acc = [[0.0f32; W]; MR];
        let ks = bv.chunks_exact(n).zip(a0).zip(a1).zip(a2).zip(a3);
        for ((((brow, &x0), &x1), &x2), &x3) in ks {
            let b: [f32; W] = brow[j0..j0 + W].try_into().expect("W columns");
            let [c0, c1, c2, c3] = &mut acc;
            for jj in 0..W {
                c0[jj] += x0 * b[jj];
                c1[jj] += x1 * b[jj];
                c2[jj] += x2 * b[jj];
                c3[jj] += x3 * b[jj];
            }
        }
        for (ii, c) in acc.iter().enumerate() {
            let off = (i0 + ii) * n + j0;
            out[off..off + W].copy_from_slice(c);
        }
        j0 += W;
    }
    j0
}

/// Blocked `C = A · Bᵀ`, bit-identical to [`matmul_a_bt_reference`].
///
/// The segmented kernel with one segment spanning the shared dimension:
/// its `+0.0 + acc` is `acc`, because a chain that starts at `+0.0` never
/// holds `-0.0`; an empty shared dimension gives zeros.
///
/// # Panics
///
/// See [`matmul_a_bt`].
pub fn matmul_a_bt_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (_, k) = dims2(a, "matmul_a_bt lhs");
    let (_, k2) = dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt shared dim {k} vs {k2}");
    a_bt_blocked(isa(), a, b, k.max(1))
}

/// `C = Σₛ Aₛ · Bₛᵀ`, where `Aₛ`, `Bₛ` are the `seg`-wide column
/// blocks `s·seg..(s+1)·seg` of `A [m, S·seg]` and `B [n, S·seg]`.
///
/// Every segment's dot product starts at `0.0` and is added, in segment
/// order, onto a total that starts at `+0.0`:
/// `c = ((+0.0 + a₀·b₀) + a₁·b₁) + …` — exactly what summing `S`
/// separate [`matmul_a_bt`] products into a zeroed matrix computes. This
/// is the batched conv's weight gradient (one segment per sample).
///
/// Dispatches like [`matmul`].
///
/// # Panics
///
/// Panics if the operands are not 2-D, `A.cols != B.cols`, `seg == 0`,
/// or `seg` does not divide the shared dimension.
pub fn matmul_a_bt_segmented(a: &Tensor, b: &Tensor, seg: usize) -> Tensor {
    if naive_kernels_forced() {
        matmul_a_bt_segmented_reference(a, b, seg)
    } else {
        matmul_a_bt_segmented_blocked(a, b, seg)
    }
}

/// Reference [`matmul_a_bt_segmented`]: the [`matmul_a_bt_reference`]
/// dot product per segment, summed onto a `+0.0` total.
///
/// # Panics
///
/// See [`matmul_a_bt_segmented`].
pub fn matmul_a_bt_segmented_reference(a: &Tensor, b: &Tensor, seg: usize) -> Tensor {
    let (m, k) = dims2(a, "matmul_a_bt_segmented lhs");
    let (n, _) = dims2(b, "matmul_a_bt_segmented rhs");
    check_segments(a, b, seg);
    let mut out = vec![0.0f32; m * n];
    a_bt_rows_reference(a.as_slice(), b.as_slice(), &mut out, 0, m, 0, n, k, n, seg);
    Tensor::from_vec(out, &[m, n])
}

/// Blocked [`matmul_a_bt_segmented`], bit-identical to
/// [`matmul_a_bt_segmented_reference`]: each `MR × NR` tile keeps a bank
/// of register accumulators for the running totals beside the one for
/// the current segment, so the per-segment partial products are never
/// written out.
///
/// # Panics
///
/// See [`matmul_a_bt_segmented`].
pub fn matmul_a_bt_segmented_blocked(a: &Tensor, b: &Tensor, seg: usize) -> Tensor {
    check_segments(a, b, seg);
    a_bt_blocked(isa(), a, b, seg)
}

fn check_segments(a: &Tensor, b: &Tensor, seg: usize) {
    let (_, k) = dims2(a, "matmul_a_bt_segmented lhs");
    let (_, k2) = dims2(b, "matmul_a_bt_segmented rhs");
    assert_eq!(k, k2, "matmul_a_bt_segmented shared dim {k} vs {k2}");
    assert!(
        seg > 0 && k % seg == 0,
        "matmul_a_bt_segmented: segment width {seg} does not divide shared dim {k}"
    );
}

/// Panel loop of the blocked `A·Bᵀ` kernels on `isa`: full tiles run
/// on [`a_bt_seg_tile`], the ragged edges on the reference order.
/// On AVX-512, products with segments of at most [`SHORT_SEG`] columns,
/// or with a shared dimension of at most [`SHORT_K`], take
/// [`WIDE`]-column tiles first; every other product, and the columns
/// the wide tiles leave, `NR`-column tiles. (On long segments of short
/// products the wide tile ran slower: 1.5× at 16×512×512 and 1.3× at
/// 16×256×144 in 16-column segments.)
fn a_bt_blocked(isa: Isa, a: &Tensor, b: &Tensor, seg: usize) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[0];
    let mut out = vec![0.0f32; m * n];
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut j0 = 0;
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 && (seg <= SHORT_SEG || k <= SHORT_K) {
        j0 = a_bt_panels::<WIDE>(isa, av, bv, &mut out, j0, (m, k, n), seg);
    }
    j0 = a_bt_panels::<NR>(isa, av, bv, &mut out, j0, (m, k, n), seg);
    a_bt_rows_reference(av, bv, &mut out, 0, m, j0, n - j0, k, n, seg);
    Tensor::from_vec(out, &[m, n])
}

/// The `W`-column panels of [`a_bt_blocked`] from column `j0` while `W`
/// columns remain; returns the first column they leave.
fn a_bt_panels<const W: usize>(
    isa: Isa,
    av: &[f32],
    bv: &[f32],
    out: &mut [f32],
    mut j0: usize,
    (m, k, n): (usize, usize, usize),
    seg: usize,
) -> usize {
    if j0 + W > n {
        return j0;
    }
    // B rows j0..j0+W transposed to k-major so the tile loads the
    // panel's B values for one k contiguously. The constant stride `W`
    // lets this loop vectorise.
    let mut tbuf = vec![0.0f32; k * W];
    while j0 + W <= n {
        for kk in 0..k {
            for jj in 0..W {
                tbuf[kk * W + jj] = bv[(j0 + jj) * k + kk];
            }
        }
        let mut i0 = 0;
        while i0 < m {
            let mh = MR.min(m - i0);
            if mh == MR {
                let apanel = &av[i0 * k..(i0 + MR) * k];
                a_bt_seg_tile::<W>(isa, apanel, &tbuf, out, i0, j0, k, n, seg);
            } else {
                a_bt_rows_reference(av, bv, out, i0, mh, j0, W, k, n, seg);
            }
            i0 += MR;
        }
        j0 += W;
    }
    j0
}

/// Runs the segmented `A·Bᵀ` tile source on `isa`: output rows
/// `i0..i0 + MR`, columns `j0..j0 + W` from a k-major B panel `tbuf`.
/// The `NR`-wide tile is compiled for AVX2 on both x86-64 ISAs, the
/// [`WIDE`] one for AVX-512.
#[allow(clippy::too_many_arguments, unsafe_code)]
fn a_bt_seg_tile<const W: usize>(
    isa: Isa,
    apanel: &[f32],
    tbuf: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    seg: usize,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` verified the feature at run time.
        Isa::Avx512 if W > NR => unsafe {
            a_bt_seg_tile_avx512::<W>(apanel, tbuf, out, i0, j0, k, n, seg)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above (AVX-512 implies AVX2).
        Isa::Avx512 | Isa::Avx2 => unsafe {
            a_bt_seg_tile_avx2::<W>(apanel, tbuf, out, i0, j0, k, n, seg)
        },
        Isa::Portable => a_bt_seg_tile_body::<W>(apanel, tbuf, out, i0, j0, k, n, seg),
    }
}

/// [`a_bt_seg_tile_body`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn a_bt_seg_tile_avx512<const W: usize>(
    apanel: &[f32],
    tbuf: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    seg: usize,
) {
    a_bt_seg_tile_body::<W>(apanel, tbuf, out, i0, j0, k, n, seg)
}

/// [`a_bt_seg_tile_body`] compiled for AVX2: `NR == 8` fits one ymm.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn a_bt_seg_tile_avx2<const W: usize>(
    apanel: &[f32],
    tbuf: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    seg: usize,
) {
    a_bt_seg_tile_body::<W>(apanel, tbuf, out, i0, j0, k, n, seg)
}

/// Reference-order serial dot products for a block of the segmented
/// `A·Bᵀ`, as [`matmul_a_bt_segmented_reference`] forms them.
#[inline]
#[allow(clippy::too_many_arguments)]
fn a_bt_rows_reference(
    av: &[f32],
    bv: &[f32],
    out: &mut [f32],
    i0: usize,
    mh: usize,
    j0: usize,
    nw: usize,
    k: usize,
    n: usize,
    seg: usize,
) {
    for i in i0..i0 + mh {
        let arow = &av[i * k..(i + 1) * k];
        for j in j0..j0 + nw {
            let brow = &bv[j * k..(j + 1) * k];
            let mut total = 0.0f32;
            for (aseg, bseg) in arow.chunks_exact(seg).zip(brow.chunks_exact(seg)) {
                let mut acc = 0.0f32;
                for (&x, &y) in aseg.iter().zip(bseg.iter()) {
                    acc += x * y;
                }
                total += acc;
            }
            out[i * n + j] = total;
        }
    }
}

/// The one source of the segmented `MR × W` tile of the blocked
/// `A·Bᵀ`: per segment a fresh accumulator tile, added onto the running
/// totals at the segment's end. Branchless, and vectorised at the width
/// the caller is compiled for.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn a_bt_seg_tile_body<const W: usize>(
    apanel: &[f32],
    tbuf: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    seg: usize,
) {
    let arows: [_; MR] = std::array::from_fn(|ii| apanel[ii * k..(ii + 1) * k].chunks_exact(seg));
    let [a0, a1, a2, a3] = arows;
    let mut total = [[0.0f32; W]; MR];
    let segs = tbuf[..k * W]
        .chunks_exact(seg * W)
        .zip(a0)
        .zip(a1)
        .zip(a2)
        .zip(a3);
    for ((((tseg, s0), s1), s2), s3) in segs {
        let mut acc = [[0.0f32; W]; MR];
        let ks = tseg.chunks_exact(W).zip(s0).zip(s1).zip(s2).zip(s3);
        for ((((brow, &x0), &x1), &x2), &x3) in ks {
            let b: [f32; W] = brow.try_into().expect("W columns");
            let [c0, c1, c2, c3] = &mut acc;
            for jj in 0..W {
                c0[jj] += x0 * b[jj];
                c1[jj] += x1 * b[jj];
                c2[jj] += x2 * b[jj];
                c3[jj] += x3 * b[jj];
            }
        }
        for ii in 0..MR {
            for jj in 0..W {
                total[ii][jj] += acc[ii][jj];
            }
        }
    }
    for (ii, trow) in total.iter().enumerate() {
        let off = (i0 + ii) * n + j0;
        out[off..off + W].copy_from_slice(trow);
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.ndim(), 2, "{what} must be 2-D, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    out[i * n + j] += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn matches_naive() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..20).map(|x| (x as f32).sin()).collect(), &[4, 5]);
        let c = matmul(&a, &b);
        let n = naive(&a, &b);
        for (x, y) in c.as_slice().iter().zip(n.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_variants_agree() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 + 1.0).collect(), &[3, 4]);
        let mut at = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                *at.at_mut(&[j, i]) = a.at(&[i, j]);
            }
        }
        assert_eq!(transpose(&a), at);

        // Aᵀ·B : [4,3]·[3,4] -> [4,4], against the k-outer loop.
        let c1 = matmul(&transpose(&a), &b);
        let mut c2 = Tensor::zeros(&[4, 4]);
        for kk in 0..3 {
            for i in 0..4 {
                for j in 0..4 {
                    *c2.at_mut(&[i, j]) += a.at(&[kk, i]) * b.at(&[kk, j]);
                }
            }
        }
        assert_eq!(c1, c2);

        // A·Bᵀ : [3,4]·[4,3] -> [3,3]
        let d1 = matmul_a_bt(&a, &b);
        let d2 = matmul(&a, &transpose(&b));
        for (x, y) in d1.as_slice().iter().zip(d2.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        matmul(&a, &b);
    }

    #[test]
    fn blocked_kernels_handle_empty_dims() {
        for (ashape, bshape) in [([0, 3], [3, 2]), ([2, 0], [0, 3]), ([2, 3], [3, 0])] {
            let a = Tensor::zeros(&ashape);
            let b = Tensor::zeros(&bshape);
            let c = matmul_blocked(&a, &b);
            assert_eq!(c.shape(), &[ashape[0], bshape[1]]);
            assert_eq!(c, matmul_reference(&a, &b));
        }
        // Aᵀ·B and A·Bᵀ with an empty shared dim produce all-zero output.
        let at = transpose(&Tensor::zeros(&[0, 2]));
        let b = Tensor::zeros(&[0, 3]);
        assert_eq!(at.shape(), &[2, 0]);
        assert_eq!(matmul_blocked(&at, &b), Tensor::zeros(&[2, 3]));
        // [MR, 0]·[NR + 1, 0]ᵀ reaches a full tile and the edge.
        let a = Tensor::zeros(&[MR, 0]);
        let b = Tensor::zeros(&[NR + 1, 0]);
        assert_eq!(matmul_a_bt_blocked(&a, &b), Tensor::zeros(&[MR, NR + 1]));
        assert_eq!(matmul_a_bt_reference(&a, &b), Tensor::zeros(&[MR, NR + 1]));
    }

    fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Every ISA the host can run.
    fn host_isas() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
                if std::arch::is_x86_feature_detected!("avx512f") {
                    isas.push(Isa::Avx512);
                }
            }
        }
        isas
    }

    /// [`fill`] with `+0.0` or `-0.0` where `(r + c) % 3 == 0` in the
    /// even rows; the odd rows hold no zero.
    fn with_zeros(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut t = fill(rows, cols, seed);
        for (idx, v) in t.as_mut_slice().iter_mut().enumerate() {
            let (r, c) = (idx / cols, idx % cols);
            if r % 2 == 0 && (r + c) % 3 == 0 {
                *v = if c % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        t
    }

    /// [`fill`] with one `+∞`, `-∞` or NaN in three of every four lines
    /// (columns when `by_column`, rows otherwise), so no output chain
    /// meets two non-finite values.
    fn with_non_finite(rows: usize, cols: usize, seed: u64, by_column: bool) -> Tensor {
        let mut t = fill(rows, cols, seed);
        let (lines, len) = if by_column {
            (cols, rows)
        } else {
            (rows, cols)
        };
        for l in (0..lines).filter(|l| l % 4 != 3) {
            let p = (l * 5) % len;
            let idx = if by_column {
                p * cols + l
            } else {
                l * cols + p
            };
            t.as_mut_slice()[idx] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][l % 4];
        }
        t
    }

    fn assert_bits(got: &[f32], want: &Tensor, what: &str) {
        for (i, (x, y)) in got.iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn every_host_isa_matches_reference_bitwise() {
        // Widths reach, at every ISA, the `W`-wide tiles, the `H`-wide
        // tiles and the scalar tail of the `A·B` tile source: 32/16,
        // 16/8 and 8/4 wide. Zeros in A meet a finite B, where the panels
        // must match as computed, and a B with ±∞/NaN, where the
        // post-check must restore the skipped terms.
        let m = 2 * MR;
        for isa in host_isas() {
            for k in [1, 3, 4, 5, 7, 9] {
                for n in [1, 7, 8, 9, 11, 12, 16, 17, 19, 28, 32, 33, 48, 57] {
                    let a = with_zeros(m, k, 5);
                    for (bs, b) in [
                        ("finite", fill(k, n, 6)),
                        ("±∞/NaN", with_non_finite(k, n, 6, true)),
                    ] {
                        let (av, bv) = (a.as_slice(), b.as_slice());
                        let mut out = vec![0.0f32; m * n];
                        for i0 in (0..m).step_by(MR) {
                            let apanel = &av[i0 * k..(i0 + MR) * k];
                            matmul_panel(isa, apanel, bv, &mut out, i0, k, n);
                            restore_zero_skips(apanel, bv, &mut out[i0 * n..(i0 + MR) * n], k);
                        }
                        let what = format!("{isa:?} matmul {m}x{k}x{n}, {bs} B");
                        assert_bits(&out, &matmul_reference(&a, &b), &what);
                    }
                }
            }
            // Widths that reach, on AVX-512 at segments up to
            // `SHORT_SEG`, the `WIDE` tiles, then the `NR` tiles and the
            // scalar tail; one ragged row below the full panels.
            for (seg, segs) in [(1, 16), (2, 3), (3, 3), (4, 5), (5, 2), (16, 2), (9, 1)] {
                let k = seg * segs;
                let a = with_zeros(m + 1, k, 7);
                for (n, (bs, b)) in
                    [2 * NR, WIDE + NR + 3, 2 * WIDE + 1]
                        .into_iter()
                        .flat_map(|n| {
                            [
                                (n, ("finite", fill(n, k, 8))),
                                (n, ("±∞/NaN", with_non_finite(n, k, 8, false))),
                            ]
                        })
                {
                    let out = a_bt_blocked(isa, &a, &b, seg);
                    let out = out.as_slice();
                    let what = format!("{isa:?} a_bt seg {seg} x {segs}, n = {n}, {bs} B");
                    assert_bits(out, &matmul_a_bt_segmented_reference(&a, &b, seg), &what);
                    if segs == 1 {
                        assert_bits(out, &matmul_a_bt_reference(&a, &b), &what);
                    }
                }
            }
        }
    }
}
