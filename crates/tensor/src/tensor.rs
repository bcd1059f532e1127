//! The dense, owned, row-major [`Tensor`] type.

use serde::{Deserialize, Serialize};

use crate::TensorError;

/// A dense, row-major tensor of `f32` values.
///
/// The element order is C order (last axis varies fastest). All
/// operations in this workspace exchange owned tensors; views are not
/// needed at the scale of the experiments and keeping ownership simple
/// makes the federated parameter bookkeeping much easier to audit.
///
/// # Example
///
/// ```
/// use adaptivefl_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// ```
    /// # use adaptivefl_tensor::Tensor;
    /// let t = Tensor::zeros(&[4]);
    /// assert!(t.as_slice().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from raw data in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    /// Use [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::try_from_vec(data, shape).expect("element count must match shape")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the element count does
    /// not match the shape.
    pub fn try_from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let numel: usize = shape.iter().product();
        if data.len() != numel {
            return Err(TensorError::ShapeMismatch {
                elements: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "reshape from {:?} to {:?} changes element count",
            self.shape,
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.shape[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        let strides = self.strides();
        for (d, (&i, &s)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(i < self.shape[d], "index {i} out of bounds on axis {d}");
            off += i * s;
        }
        off
    }

    /// Element access by multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element access by multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two equally shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Index of the maximum element (first on ties); `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Matrix product of two 2-D tensors (see [`crate::ops::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions
    /// differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::ops::matmul(self, other)
    }
}

impl Default for Tensor {
    /// An empty scalar-shaped tensor (`shape = [0]`).
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}(numel={})", self.shape, self.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.ndim(), 3);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_count() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn strides_and_indexing() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.strides(), vec![12, 4, 1]);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.sq_norm(), 14.0);
        assert_eq!(t.argmax(), Some(2));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }
}
