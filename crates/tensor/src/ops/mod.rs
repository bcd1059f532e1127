//! Numerical kernels: matrix multiplication, im2col convolution,
//! depthwise convolution, pooling, and the softmax used by the loss
//! layer.
//!
//! These free functions operate on plain [`Tensor`](crate::Tensor)s; the
//! `adaptivefl-nn` crate wraps them into layers with parameter and
//! gradient bookkeeping.

mod conv;
mod depthwise;
mod matmul;
mod pool;
mod softmax;

pub use conv::{conv2d_backward, conv2d_forward, Conv2dGrads, ConvGeometry};
pub use depthwise::{depthwise_backward, depthwise_forward};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_blocked, matmul_a_bt_reference, matmul_a_bt_segmented,
    matmul_a_bt_segmented_blocked, matmul_a_bt_segmented_reference, matmul_blocked,
    matmul_reference, naive_kernels_forced, transpose,
};
pub use pool::{
    avg_pool2d_backward, avg_pool2d_forward, global_avg_pool_backward, global_avg_pool_forward,
    max_pool2d_backward, max_pool2d_forward,
};
pub use softmax::{log_softmax_rows, softmax_rows};
