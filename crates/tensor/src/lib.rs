//! Dense f32 tensor substrate for the AdaptiveFL reproduction.
//!
//! This crate provides the minimal numerical kernel the rest of the
//! workspace is built on: an owned, row-major, dense [`Tensor`] of `f32`
//! values plus the operations a small convolutional network needs
//! (mat-mul, im2col convolution, pooling, elementwise maps, reductions)
//! and the weight initialisers used by the model zoo.
//!
//! Nothing here is specific to federated learning; the crate plays the
//! role PyTorch's tensor library plays for the original paper.
//!
//! # Example
//!
//! ```
//! use adaptivefl_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

#![deny(unsafe_code)]

mod tensor;

pub mod init;
pub mod ops;
pub mod rng;
pub mod scratch;
pub mod slice;

pub use scratch::Scratch;
pub use slice::SliceSpec;
pub use tensor::Tensor;

/// Errors produced by tensor construction and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of supplied elements does not match the product of the
    /// requested shape dimensions.
    ShapeMismatch {
        /// Number of elements provided.
        elements: usize,
        /// Shape that was requested.
        shape: Vec<usize>,
    },
    /// Two operands have incompatible shapes for the attempted operation.
    IncompatibleShapes {
        /// Shape of the left operand.
        left: Vec<usize>,
        /// Shape of the right operand.
        right: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { elements, shape } => write!(
                f,
                "cannot view {elements} elements as shape {shape:?} ({} elements)",
                shape.iter().product::<usize>()
            ),
            TensorError::IncompatibleShapes { left, right, op } => {
                write!(f, "incompatible shapes {left:?} and {right:?} for {op}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
