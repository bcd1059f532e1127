//! Property tests for the row-wise prefix-block primitives:
//! `SliceSpec::extract`, `embed` and `scatter_add` walk contiguous
//! runs, and must equal, bit for bit, the per-element walk they
//! replaced. That walk is kept here as the oracle.

use adaptivefl_tensor::{SliceSpec, Tensor};
use proptest::prelude::*;

/// The per-element oracle: the linear offset inside a tensor of shape
/// `shape` of every element of the prefix block `dims`, in the block's
/// own row-major order, each recomputed as a multi-index dot product.
fn for_each_offset(dims: &[usize], shape: &[usize], mut f: impl FnMut(usize)) {
    let rank = shape.len();
    if rank == 0 || dims.iter().product::<usize>() == 0 {
        return;
    }
    let mut strides = vec![1usize; rank];
    for i in (0..rank - 1).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    let mut idx = vec![0usize; rank];
    loop {
        let off: usize = idx.iter().zip(&strides).map(|(&i, &s)| i * s).sum();
        f(off);
        let mut d = rank;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
            if d == 0 {
                return;
            }
        }
    }
}

/// Splits `(full, pick)` axis draws into a full shape and a prefix
/// block: `pick == 5` covers the axis whole, smaller picks clamp to it.
fn shapes(axes: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    let full: Vec<usize> = axes.iter().map(|&(n, _)| n).collect();
    let dims = axes
        .iter()
        .map(|&(n, p)| if p == 5 { n } else { p.min(n) })
        .collect();
    (full, dims)
}

/// Deterministic, sign-mixed, non-integer fill so every element is
/// distinct and rounding shows.
fn filled(shape: &[usize], salt: f32) -> Tensor {
    let n = shape.iter().product();
    let v = (0..n)
        .map(|i| ((i as f32) * 0.37 + salt).sin() * 3.1)
        .collect();
    Tensor::from_vec(v, shape)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_wise_slices_equal_the_per_element_walk(
        axes in prop::collection::vec((0usize..5, 0usize..6), 1..5),
        weight in 0.1f32..9.0,
        salt in -2.0f32..2.0,
    ) {
        let (full_shape, dims) = shapes(&axes);
        let spec = SliceSpec::new(dims.clone());
        let full = filled(&full_shape, salt);
        let block = filled(&dims, salt + 1.0);

        // extract
        let mut want = Vec::new();
        for_each_offset(&dims, &full_shape, |off| {
            want.push(full.as_slice()[off].to_bits())
        });
        let got = spec.extract(&full);
        prop_assert_eq!(got.shape(), dims.as_slice());
        prop_assert_eq!(bits(&got), want);

        // embed
        let mut want = full.clone();
        let mut i = 0;
        for_each_offset(&dims, &full_shape, |off| {
            want.as_mut_slice()[off] = block.as_slice()[i];
            i += 1;
        });
        let mut got = full.clone();
        spec.embed(&block, &mut got);
        prop_assert_eq!(bits(&got), bits(&want));

        // scatter_add, twice so the second pass accumulates onto
        // non-zero sums
        let mut want_acc = filled(&full_shape, salt - 1.0);
        let mut want_cnt = Tensor::zeros(&full_shape);
        let (mut acc, mut cnt) = (want_acc.clone(), want_cnt.clone());
        for w in [weight, weight * 0.5 + 0.3] {
            let mut i = 0;
            for_each_offset(&dims, &full_shape, |off| {
                want_acc.as_mut_slice()[off] += w * block.as_slice()[i];
                want_cnt.as_mut_slice()[off] += w;
                i += 1;
            });
            spec.scatter_add(&block, w, &mut acc, &mut cnt);
        }
        prop_assert_eq!(bits(&acc), bits(&want_acc));
        prop_assert_eq!(bits(&cnt), bits(&want_cnt));
    }
}

#[test]
fn edge_blocks_match_the_oracle() {
    // Zero-length axes, full covers, 1-element rows and a block whose
    // inner axes are whole but whose outer axis is cut.
    let cases: [(&[usize], &[usize]); 7] = [
        (&[4, 0, 3], &[2, 0, 3]),
        (&[3, 4], &[3, 4]),
        (&[2, 3, 4, 5], &[2, 3, 4, 5]),
        (&[3, 4, 5], &[2, 3, 1]),
        (&[5, 3, 3], &[2, 3, 3]),
        (&[4, 4, 3, 3], &[3, 2, 3, 3]),
        (&[7], &[1]),
    ];
    for (full_shape, dims) in cases {
        let spec = SliceSpec::new(dims.to_vec());
        let full = filled(full_shape, 0.5);
        let mut want = Vec::new();
        for_each_offset(dims, full_shape, |off| {
            want.push(full.as_slice()[off].to_bits())
        });
        assert_eq!(
            bits(&spec.extract(&full)),
            want,
            "{full_shape:?} / {dims:?}"
        );
    }
}
