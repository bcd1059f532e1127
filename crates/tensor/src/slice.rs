//! Prefix-block slicing used for nested submodel extraction.
//!
//! AdaptiveFL (like HeteroFL) builds heterogeneous submodels by taking a
//! *prefix* of the channels of every pruned layer: the pruned weight of a
//! layer is `W[:d·r_w][:n·r_w]`. A [`SliceSpec`] describes the prefix
//! block (one length per axis) and supports the three primitives the
//! federated engine needs:
//!
//! * [`SliceSpec::extract`] — copy the prefix block out of a full tensor,
//! * [`SliceSpec::embed`] — write a block back into a full tensor,
//! * [`SliceSpec::scatter_add`] — accumulate a weighted block and bump a
//!   per-element coverage count (Algorithm 2 of the paper).

use serde::{Deserialize, Serialize};

use crate::Tensor;

/// A prefix block of a tensor: on every axis `d`, the range `0..dims[d]`.
///
/// # Example
///
/// ```
/// use adaptivefl_tensor::{SliceSpec, Tensor};
///
/// let full = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
/// let spec = SliceSpec::new(vec![2, 2]);
/// let block = spec.extract(&full);
/// assert_eq!(block.as_slice(), &[0.0, 1.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceSpec {
    dims: Vec<usize>,
}

impl SliceSpec {
    /// Creates a prefix block with the given per-axis lengths.
    pub fn new(dims: Vec<usize>) -> Self {
        SliceSpec { dims }
    }

    /// A spec selecting the whole of `shape`.
    pub fn full(shape: &[usize]) -> Self {
        SliceSpec {
            dims: shape.to_vec(),
        }
    }

    /// The per-axis lengths of the block.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of elements in the block.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `true` if this block covers all of `shape`.
    pub fn covers(&self, shape: &[usize]) -> bool {
        self.dims == shape
    }

    /// Returns `true` if the block fits inside `shape`.
    pub fn fits_in(&self, shape: &[usize]) -> bool {
        self.dims.len() == shape.len() && self.dims.iter().zip(shape).all(|(&d, &s)| d <= s)
    }

    /// Returns `true` if this block is elementwise contained in `other`
    /// (nesting property of width-pruned submodels).
    pub fn nested_in(&self, other: &SliceSpec) -> bool {
        self.dims.len() == other.dims.len()
            && self.dims.iter().zip(&other.dims).all(|(&a, &b)| a <= b)
    }

    /// Calls `f(at, off, len)` for every contiguous run of the block
    /// inside a tensor of shape `shape`, in the block's own row-major
    /// order: `len` elements start at offset `at` of the block and at
    /// offset `off` of the full tensor. Trailing axes the block covers
    /// whole merge into the run, so a full-cover block is one run.
    fn for_each_row(&self, shape: &[usize], mut f: impl FnMut(usize, usize, usize)) {
        assert!(
            self.fits_in(shape),
            "slice {:?} does not fit in shape {:?}",
            self.dims,
            shape
        );
        let rank = shape.len();
        if rank == 0 || self.numel() == 0 {
            return;
        }
        // Axes `split..` form one contiguous run of the full tensor.
        let mut split = rank - 1;
        while split > 0 && self.dims[split] == shape[split] {
            split -= 1;
        }
        let len: usize = self.dims[split..].iter().product();
        let mut strides = vec![0usize; split];
        let mut stride: usize = shape[split..].iter().product();
        for d in (0..split).rev() {
            strides[d] = stride;
            stride *= shape[d];
        }
        let mut idx = vec![0usize; split];
        let (mut at, mut off) = (0usize, 0usize);
        loop {
            f(at, off, len);
            at += len;
            // Advance the outer multi-index within the block bounds.
            let mut d = split;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                idx[d] += 1;
                off += strides[d];
                if idx[d] < self.dims[d] {
                    break;
                }
                off -= idx[d] * strides[d];
                idx[d] = 0;
            }
        }
    }

    /// Copies the prefix block out of `full` into a new tensor with the
    /// block's shape.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit inside `full`'s shape.
    pub fn extract(&self, full: &Tensor) -> Tensor {
        let mut out = Vec::with_capacity(self.numel());
        let src = full.as_slice();
        self.for_each_row(full.shape(), |_, off, len| {
            out.extend_from_slice(&src[off..off + len]);
        });
        Tensor::from_vec(out, &self.dims)
    }

    /// Writes `block` into the prefix region of `full`, overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if `block`'s shape differs from the spec or the spec does
    /// not fit inside `full`.
    pub fn embed(&self, block: &Tensor, full: &mut Tensor) {
        assert_eq!(block.shape(), self.dims.as_slice(), "block shape mismatch");
        let shape = full.shape().to_vec();
        let dst = full.as_mut_slice();
        let src = block.as_slice();
        self.for_each_row(&shape, |at, off, len| {
            dst[off..off + len].copy_from_slice(&src[at..at + len]);
        });
    }

    /// Accumulates `weight * block` into `acc` and adds `weight` to the
    /// per-element coverage `count` — the inner loop of the paper's
    /// Algorithm 2 (heterogeneous aggregation).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn scatter_add(&self, block: &Tensor, weight: f32, acc: &mut Tensor, count: &mut Tensor) {
        assert_eq!(block.shape(), self.dims.as_slice(), "block shape mismatch");
        assert_eq!(acc.shape(), count.shape(), "acc/count shape mismatch");
        let shape = acc.shape().to_vec();
        let accs = acc.as_mut_slice();
        let counts = count.as_mut_slice();
        let src = block.as_slice();
        self.for_each_row(&shape, |at, off, len| {
            let rows = accs[off..off + len]
                .iter_mut()
                .zip(&mut counts[off..off + len]);
            for ((a, c), &v) in rows.zip(&src[at..at + len]) {
                *a += weight * v;
                *c += weight;
            }
        });
    }
}

impl std::fmt::Display for SliceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SliceSpec{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_prefix_block_2d() {
        let full = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let spec = SliceSpec::new(vec![2, 3]);
        let block = spec.extract(&full);
        assert_eq!(block.shape(), &[2, 3]);
        assert_eq!(block.as_slice(), &[0.0, 1.0, 2.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn extract_full_is_identity() {
        let full = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let spec = SliceSpec::full(full.shape());
        assert_eq!(spec.extract(&full), full);
    }

    #[test]
    fn embed_roundtrips() {
        let mut full = Tensor::zeros(&[3, 4]);
        let block = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let spec = SliceSpec::new(vec![2, 2]);
        spec.embed(&block, &mut full);
        assert_eq!(spec.extract(&full), block);
        // Outside the block untouched.
        assert_eq!(full.at(&[2, 0]), 0.0);
        assert_eq!(full.at(&[0, 3]), 0.0);
    }

    #[test]
    fn scatter_add_counts_coverage() {
        let mut acc = Tensor::zeros(&[2, 2]);
        let mut cnt = Tensor::zeros(&[2, 2]);
        let b1 = Tensor::ones(&[1, 2]);
        let b2 = Tensor::ones(&[2, 1]);
        SliceSpec::new(vec![1, 2]).scatter_add(&b1, 3.0, &mut acc, &mut cnt);
        SliceSpec::new(vec![2, 1]).scatter_add(&b2, 1.0, &mut acc, &mut cnt);
        // Overlap at (0,0): acc 4, cnt 4. (0,1): 3/3. (1,0): 1/1. (1,1): 0/0.
        assert_eq!(acc.as_slice(), &[4.0, 3.0, 1.0, 0.0]);
        assert_eq!(cnt.as_slice(), &[4.0, 3.0, 1.0, 0.0]);
    }

    #[test]
    fn nested_in_is_partial_order() {
        let a = SliceSpec::new(vec![2, 2]);
        let b = SliceSpec::new(vec![3, 4]);
        let c = SliceSpec::new(vec![2, 5]);
        assert!(a.nested_in(&b));
        assert!(!b.nested_in(&a));
        assert!(!c.nested_in(&b));
        assert!(a.nested_in(&a));
    }

    #[test]
    fn empty_block_is_noop() {
        let full = Tensor::ones(&[2, 2]);
        let spec = SliceSpec::new(vec![0, 2]);
        let block = spec.extract(&full);
        assert_eq!(block.numel(), 0);
    }

    #[test]
    fn four_dim_conv_weight_slice() {
        // Conv weight [out=4, in=3, kh=2, kw=2], take out=2, in=2.
        let full = Tensor::from_vec((0..48).map(|x| x as f32).collect(), &[4, 3, 2, 2]);
        let spec = SliceSpec::new(vec![2, 2, 2, 2]);
        let block = spec.extract(&full);
        assert_eq!(block.shape(), &[2, 2, 2, 2]);
        // First element of out-channel 1, in-channel 1 is at offset 12+4=16.
        assert_eq!(block.at(&[1, 1, 0, 0]), 16.0);
    }
}
