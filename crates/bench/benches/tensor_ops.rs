//! Micro-benchmarks of the tensor kernels that dominate training time.

use adaptivefl_tensor::ops::{conv2d_backward, conv2d_forward, matmul, ConvGeometry};
use adaptivefl_tensor::{init, rng, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut r = rng::seeded(1);
    let a = init::normal(&[64, 64], 1.0, &mut r);
    let b = init::normal(&[64, 64], 1.0, &mut r);
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| matmul(black_box(&a), black_box(&b)))
    });
    let a2 = init::normal(&[128, 256], 1.0, &mut r);
    let b2 = init::normal(&[256, 128], 1.0, &mut r);
    c.bench_function("matmul_128x256x128", |bench| {
        bench.iter(|| matmul(black_box(&a2), black_box(&b2)))
    });
}

/// Forward and backward of one 3×3 pad-1 conv layer at the given
/// input shape `[n, c_in, h, w]` and output channel count.
fn bench_conv_layer(c: &mut Criterion, name: &str, in_shape: [usize; 4], c_out: usize) {
    let mut r = rng::seeded(2);
    let geo = ConvGeometry {
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let x = init::normal(&in_shape, 1.0, &mut r);
    let w = init::normal(&[c_out, in_shape[1], 3, 3], 0.1, &mut r);
    let b = Tensor::zeros(&[c_out]);
    c.bench_function(&format!("{name}_fwd"), |bench| {
        bench.iter(|| conv2d_forward(black_box(&x), black_box(&w), black_box(&b), geo))
    });
    let (y, cols) = conv2d_forward(&x, &w, &b, geo);
    let dy = Tensor::ones(y.shape());
    c.bench_function(&format!("{name}_bwd"), |bench| {
        bench.iter(|| {
            conv2d_backward(
                black_box(&dy),
                black_box(&w),
                black_box(&cols),
                x.shape(),
                geo,
            )
        })
    });
}

fn bench_conv(c: &mut Criterion) {
    bench_conv_layer(c, "conv3x3_16to32_8x8_b8", [8, 16, 8, 8], 32);
    // A deep layer of the 8×8 models: one output pixel per sample, where
    // lowering the whole minibatch at once matters most.
    bench_conv_layer(c, "conv3x3_64to64_1x1_b16", [16, 64, 1, 1], 64);
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_matmul, bench_conv
}
criterion_main!(benches);
