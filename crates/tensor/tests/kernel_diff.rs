//! Differential kernel suite: the register-blocked matmul kernels must
//! be **bit-equal** (`f32::to_bits`) to the naive reference kernels on
//! every shape — including degenerate dims (1/2/3) and sizes that are
//! not multiples of the register-tile size — and on inputs salted with
//! `+0.0` / `-0.0`, `±∞` and NaN. The `A·B` reference skips zero `A`
//! elements, while the blocked microkernels add every `0·b`. A chain
//! that starts at `+0.0` never holds `-0.0`, so the two differ only
//! where `0·∞` or `0·NaN` turns a chain NaN; the blocked kernel
//! recomputes such rows by the reference loop, and
//! [`zero_panels_against_non_finite_b_match_bitwise`] checks that on
//! full panels. `Aᵀ·B` is `matmul_blocked` on `transpose(A)`, checked
//! against the k-outer loop [`at_b_reference`]. Segmented `A·Bᵀ` with
//! one-column segments equals one segment up to NaN bits
//! ([`one_column_segments_are_one_segment`]), and `transpose` is an
//! exact copy on every shape ([`transpose_is_an_exact_copy`]).

use adaptivefl_tensor::ops::{
    matmul_a_bt, matmul_a_bt_blocked, matmul_a_bt_reference, matmul_a_bt_segmented,
    matmul_a_bt_segmented_blocked, matmul_a_bt_segmented_reference, matmul_blocked,
    matmul_reference, transpose,
};
use adaptivefl_tensor::Tensor;
use proptest::prelude::*;

fn assert_bits_equal(blocked: &Tensor, reference: &Tensor, what: &str) {
    assert_eq!(blocked.shape(), reference.shape(), "{what}: shape");
    for (i, (x, y)) in blocked
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: blocked {x:?} ({:#010x}) vs reference {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// `Aᵀ·B` for `A [k, m]`, `B [k, n]` as a k-outer loop that skips
/// `a[k][i] == 0`: each output element is one increasing-k chain from
/// `+0.0`.
fn at_b_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        let brow = &b.as_slice()[kk * n..(kk + 1) * n];
        for (i, &aki) in a.as_slice()[kk * m..(kk + 1) * m].iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            for (o, &bkj) in out[i * n..(i + 1) * n].iter_mut().zip(brow) {
                *o += aki * bkj;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Deterministic salted matrix fill: mostly smooth values, mixed with
/// exact `+0.0` / `-0.0` (exercising the zero-skip) and huge/tiny
/// magnitudes (where any re-association changes the rounding).
fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            let v = (r % 8000) as f32 / 1000.0 - 4.0;
            match r % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => v * 1.0e30,
                3 => v * 1.0e-30,
                _ => v,
            }
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `A·B` over randomized shapes straddling the 4×8 tile size.
    #[test]
    fn matmul_blocked_is_bit_equal(
        m in 1usize..=19, k in 1usize..=19, n in 1usize..=19, seed in 0u64..1 << 60,
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xabcd);
        assert_bits_equal(&matmul_blocked(&a, &b), &matmul_reference(&a, &b), "matmul");
    }

    /// `Aᵀ·B` as `matmul_blocked` on `transpose(A)`, over randomized
    /// shapes.
    #[test]
    fn transposed_matmul_is_bit_equal(
        m in 1usize..=19, k in 1usize..=19, n in 1usize..=19, seed in 0u64..1 << 60,
    ) {
        let a = matrix(k, m, seed);
        let b = matrix(k, n, seed ^ 0xabcd);
        assert_bits_equal(
            &matmul_blocked(&transpose(&a), &b),
            &at_b_reference(&a, &b),
            "matmul on transpose",
        );
    }

    /// `A·Bᵀ` over randomized shapes (no zero-skip in this kernel).
    #[test]
    fn matmul_a_bt_blocked_is_bit_equal(
        m in 1usize..=19, k in 1usize..=19, n in 1usize..=19, seed in 0u64..1 << 60,
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(n, k, seed ^ 0xabcd);
        assert_bits_equal(
            &matmul_a_bt_blocked(&a, &b),
            &matmul_a_bt_reference(&a, &b),
            "matmul_a_bt",
        );
    }

    /// Segmented `A·Bᵀ` (the batched conv's weight gradient) over
    /// randomized row counts, segment widths and segment counts.
    #[test]
    fn matmul_a_bt_segmented_blocked_is_bit_equal(
        m in 1usize..=19, n in 1usize..=19, seg in 1usize..=6, segs in 1usize..=5,
        seed in 0u64..1 << 60,
    ) {
        let a = matrix(m, seg * segs, seed);
        let b = matrix(n, seg * segs, seed ^ 0xabcd);
        assert_bits_equal(
            &matmul_a_bt_segmented_blocked(&a, &b, seg),
            &matmul_a_bt_segmented_reference(&a, &b, seg),
            "matmul_a_bt_segmented",
        );
    }

    /// The segmented reference is, by definition, the per-segment
    /// `A·Bᵀ` products summed in segment order into a zeroed matrix.
    #[test]
    fn segmented_reference_sums_per_segment_products(
        m in 1usize..=9, n in 1usize..=9, seg in 1usize..=6, segs in 1usize..=5,
        seed in 0u64..1 << 60,
    ) {
        let k = seg * segs;
        let a = matrix(m, k, seed);
        let b = matrix(n, k, seed ^ 0xabcd);
        let columns = |t: &Tensor, rows: usize, s: usize| {
            let data = (0..rows)
                .flat_map(|r| t.as_slice()[r * k + s * seg..r * k + (s + 1) * seg].to_vec())
                .collect();
            Tensor::from_vec(data, &[rows, seg])
        };
        let mut want = Tensor::zeros(&[m, n]);
        for s in 0..segs {
            want.add_assign(&matmul_a_bt_reference(&columns(&a, m, s), &columns(&b, n, s)));
        }
        assert_bits_equal(
            &matmul_a_bt_segmented_reference(&a, &b, seg),
            &want,
            "segmented vs summed segments",
        );
    }

    /// Larger shapes spanning several full tiles plus ragged edges.
    #[test]
    fn big_ragged_shapes_are_bit_equal(
        m in 29usize..=41, k in 17usize..=33, n in 29usize..=41, seed in 0u64..1 << 60,
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xabcd);
        assert_bits_equal(&matmul_blocked(&a, &b), &matmul_reference(&a, &b), "matmul big");
    }
}

/// Exhaustive sweep of every degenerate combination m/k/n ∈ {1, 2, 3}
/// plus the first non-multiples of the tile dims, on a fixed salted
/// input pattern.
#[test]
fn degenerate_and_off_tile_shapes_are_bit_equal() {
    let dims = [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 13];
    for &m in &dims {
        for &k in &dims {
            for &n in &dims {
                let a = matrix(m, k, 5);
                let b = matrix(k, n, 9);
                assert_bits_equal(&matmul_blocked(&a, &b), &matmul_reference(&a, &b), "matmul");
                let at = matrix(k, m, 5);
                assert_bits_equal(
                    &matmul_blocked(&transpose(&at), &b),
                    &at_b_reference(&at, &b),
                    "matmul on transpose",
                );
                let bt = matrix(n, k, 9);
                assert_bits_equal(
                    &matmul_a_bt_blocked(&a, &bt),
                    &matmul_a_bt_reference(&a, &bt),
                    "matmul_a_bt",
                );
                for seg in (1..=k).filter(|s| k % s == 0) {
                    assert_bits_equal(
                        &matmul_a_bt_segmented_blocked(&a, &bt, seg),
                        &matmul_a_bt_segmented_reference(&a, &bt, seg),
                        "matmul_a_bt_segmented",
                    );
                }
            }
        }
    }
}

/// Non-finite values propagate identically (the zero-skip means `0 · ∞`
/// produces NaN in neither `A·B` nor `Aᵀ·B`, and a dropped skip would).
#[test]
fn non_finite_values_match_bitwise() {
    let a = Tensor::from_vec(
        vec![0.0, f32::INFINITY, -0.0, f32::NEG_INFINITY, 1.0, f32::NAN],
        &[2, 3],
    );
    let b = Tensor::from_vec(vec![f32::INFINITY, 0.0, 2.0, -1.0, f32::NAN, -0.0], &[3, 2]);
    assert_bits_equal(
        &matmul_blocked(&a, &b),
        &matmul_reference(&a, &b),
        "matmul inf",
    );
    let at = Tensor::from_vec(
        vec![0.0, f32::INFINITY, -0.0, f32::NEG_INFINITY, 1.0, f32::NAN],
        &[3, 2],
    );
    assert_bits_equal(
        &matmul_blocked(&transpose(&at), &b),
        &at_b_reference(&at, &b),
        "matmul on transpose inf",
    );
    let bt = Tensor::from_vec(vec![f32::INFINITY, 0.0, 2.0, -1.0, f32::NAN, -0.0], &[2, 3]);
    assert_bits_equal(
        &matmul_a_bt_blocked(&a, &bt),
        &matmul_a_bt_reference(&a, &bt),
        "matmul_a_bt inf",
    );
    assert_bits_equal(
        &matmul_a_bt_segmented_blocked(&a, &bt, 1),
        &matmul_a_bt_segmented_reference(&a, &bt, 1),
        "matmul_a_bt_segmented inf",
    );
}

/// Finite values in `[-4, 4)`, with `A`'s column (or, transposed, row)
/// `kk` set to `+0.0`, `-0.0` and a non-zero value in turn down the
/// output rows, and one in seven other entries `±0.0`.
fn zero_salted(rows: usize, cols: usize, kk: usize, transposed: bool) -> Tensor {
    let mut t = matrix(rows, cols, 77 + kk as u64).map(|v| (v % 4.0).clamp(-4.0, 4.0));
    let data = t.as_mut_slice();
    for (idx, v) in data.iter_mut().enumerate() {
        let (r, c) = (idx / cols, idx % cols);
        let (i, k) = if transposed { (c, r) } else { (r, c) };
        if k == kk {
            *v = [0.0, -0.0, 1.5][i % 3];
        } else if idx % 7 == 3 {
            *v = if idx % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    t
}

/// Full `MR`-row panels whose `A` holds `±0.0` against a `B` with one
/// `+∞`, `-∞` or NaN in row `kk`: the microkernels form `0·∞ = NaN` or
/// `0·NaN` where the reference skips the term, so only the blocked
/// kernels' NaN post-check keeps them equal. `m = 13` gives three full
/// panels and a ragged row; `n = 57` puts the non-finite column in the
/// 32-, 16- and 8-wide SIMD tiles and the scalar tail.
#[test]
fn zero_panels_against_non_finite_b_match_bitwise() {
    let (m, k, n) = (13, 9, 57);
    for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        for (kk, j) in [(0, 0), (3, 17), (4, 31), (5, 40), (8, 47), (2, 50), (7, 56)] {
            let mut b = matrix(k, n, 5 + j as u64).map(|v| (v % 4.0).clamp(-4.0, 4.0));
            b.as_mut_slice()[kk * n + j] = bad;
            let what = format!("{bad} at B[{kk}, {j}]");
            let a = zero_salted(m, k, kk, false);
            assert_bits_equal(
                &matmul_blocked(&a, &b),
                &matmul_reference(&a, &b),
                &format!("matmul, {what}"),
            );
            let at = zero_salted(k, m, kk, true);
            assert_bits_equal(
                &matmul_blocked(&transpose(&at), &b),
                &at_b_reference(&at, &b),
                &format!("matmul on transpose, {what}"),
            );
        }
    }
}

#[test]
#[should_panic(expected = "does not divide")]
fn segmented_rejects_ragged_segments() {
    matmul_a_bt_segmented_blocked(&matrix(2, 5, 1), &matrix(3, 5, 2), 2);
}

/// [`matrix`] with one in five entries `+∞`, `-∞` or NaN.
fn non_finite(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = matrix(rows, cols, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if (i * 7 + seed as usize).is_multiple_of(5) {
            *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 3];
        }
    }
    t
}

/// Equal by `to_bits`, except that any two NaNs match (DESIGN.md §10):
/// which operand's NaN an add propagates is not fixed by the order of
/// operations.
fn assert_equal_up_to_nan(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i} differs: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// A segmented `A·Bᵀ` whose segments are one column wide is one
/// segment: `t + (0.0 + a·b)` differs from `t + a·b` only when
/// `a·b = -0.0`, and then only if `t` is `-0.0`, which a chain from
/// `+0.0` never holds. Conv backward relies on this for the weight
/// gradient of 1×1-plane layers. Checked in both kernel modes, on
/// inputs with `±0.0`, overflowing magnitudes, `±∞` and NaN.
#[test]
fn one_column_segments_are_one_segment() {
    for m in [1, 3, 4, 9, 16] {
        for k in [1, 2, 3, 16, 17] {
            for n in [1, 7, 8, 33, 65] {
                for (salt, (a, b)) in [
                    ("±0", (matrix(m, k, 3), matrix(n, k, 4))),
                    ("±∞/NaN", (non_finite(m, k, 5), non_finite(n, k, 6))),
                ] {
                    let what = format!("{m}x{k}x{n} {salt}");
                    assert_equal_up_to_nan(
                        &matmul_a_bt_segmented(&a, &b, 1),
                        &matmul_a_bt(&a, &b),
                        &format!("dispatched, {what}"),
                    );
                    assert_equal_up_to_nan(
                        &matmul_a_bt_segmented_blocked(&a, &b, 1),
                        &matmul_a_bt_blocked(&a, &b),
                        &format!("blocked, {what}"),
                    );
                    assert_equal_up_to_nan(
                        &matmul_a_bt_segmented_reference(&a, &b, 1),
                        &matmul_a_bt_reference(&a, &b),
                        &format!("reference, {what}"),
                    );
                }
            }
        }
    }
}

/// Short segments (1, 2 and 4 columns) at widths that reach the 32-wide
/// AVX-512 tile, the 8-wide tile and the scalar tail, with ragged rows.
#[test]
fn short_segments_are_bit_equal_at_every_tile_width() {
    for seg in [1, 2, 4] {
        for segs in [1, 3, 16] {
            let k = seg * segs;
            for n in [7, 8, 31, 32, 33, 40, 41, 47, 64, 65, 72, 75] {
                for m in [4, 9] {
                    let a = matrix(m, k, (seg * 100 + n) as u64);
                    let b = matrix(n, k, (segs * 100 + m) as u64);
                    assert_bits_equal(
                        &matmul_a_bt_segmented_blocked(&a, &b, seg),
                        &matmul_a_bt_segmented_reference(&a, &b, seg),
                        &format!("seg {seg} x {segs}, {m}x{n}"),
                    );
                }
            }
        }
    }
}

/// `transpose` moves bits and nothing else, on rows and columns (a
/// plain copy), on row counts that fill 8-row bands exactly, and on row
/// counts that leave a remainder, with `±0.0`, `±∞` and NaN.
#[test]
fn transpose_is_an_exact_copy() {
    let dims = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31];
    for &rows in &dims {
        for &cols in &dims {
            let a = non_finite(rows, cols, (rows * 32 + cols) as u64);
            let t = transpose(&a);
            assert_eq!(t.shape(), &[cols, rows]);
            for i in 0..rows {
                for j in 0..cols {
                    let (x, y) = (t.as_slice()[j * rows + i], a.as_slice()[i * cols + j]);
                    assert_eq!(x.to_bits(), y.to_bits(), "{rows}x{cols} at ({i}, {j})");
                }
            }
        }
    }
}
