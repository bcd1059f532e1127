//! Randomised finite-difference gradient checks for every layer type,
//! over randomly drawn shapes (proptest). Complements the fixed-shape
//! unit tests inside each layer module.

use adaptivefl_nn::layer::{Layer, ParamKind};
use adaptivefl_nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d, Linear, MaxPool2d, Relu};
use adaptivefl_tensor::{init, rng, Tensor};
use proptest::prelude::*;

/// Sum-of-outputs loss; dy = ones.
fn loss_of(layer: &mut dyn Layer, x: &Tensor) -> f32 {
    layer.forward(x.clone(), false).sum()
}

/// Checks one weight coordinate and one input coordinate of `layer`
/// against central finite differences.
fn check_layer(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
    layer.zero_grads();
    let y = layer.forward(x.clone(), true);
    let dx = layer.backward(Tensor::ones(y.shape()));

    // Input gradient at the middle coordinate.
    let eps = 1e-2f32;
    let idx = x.numel() / 2;
    let mut xp = x.clone();
    xp.as_mut_slice()[idx] += eps;
    let mut xm = x.clone();
    xm.as_mut_slice()[idx] -= eps;
    let num = (loss_of(layer, &xp) - loss_of(layer, &xm)) / (2.0 * eps);
    let ana = dx.as_slice()[idx];
    assert!(
        (num - ana).abs() <= tol * (1.0 + ana.abs().max(num.abs())),
        "input grad: numeric {num} vs analytic {ana}"
    );

    // One trainable parameter coordinate (if any).
    let mut target: Option<(String, usize, f32)> = None;
    layer.visit_params("", &mut |name: &str,
                                 kind: ParamKind,
                                 v: &Tensor,
                                 g: &Tensor| {
        if target.is_none() && kind == ParamKind::Weight && v.numel() > 0 {
            let i = v.numel() / 2;
            target = Some((name.to_string(), i, g.as_slice()[i]));
        }
    });
    if let Some((name, i, ana)) = target {
        let bump = |delta: f32, layer: &mut dyn Layer| {
            layer.visit_params_mut(
                "",
                &mut |n: &str, _: ParamKind, v: &mut Tensor, _: &mut Tensor| {
                    if n == name {
                        v.as_mut_slice()[i] += delta;
                    }
                },
            );
        };
        bump(eps, layer);
        let lp = loss_of(layer, x);
        bump(-2.0 * eps, layer);
        let lm = loss_of(layer, x);
        bump(eps, layer);
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - ana).abs() <= tol * (1.0 + ana.abs().max(num.abs())),
            "weight grad {name}[{i}]: numeric {num} vs analytic {ana}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conv2d_gradients(in_c in 1usize..4, out_c in 1usize..5, hw in 3usize..7, seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let mut conv = Conv2d::new(in_c, out_c, 3, 1, 1, &mut r);
        let x = init::normal(&[2, in_c, hw, hw], 1.0, &mut r);
        check_layer(&mut conv, &x, 0.05);
    }

    #[test]
    fn depthwise_gradients(c in 1usize..5, hw in 3usize..7, seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let mut dw = DepthwiseConv2d::new(c, 3, 1, 1, &mut r);
        let x = init::normal(&[2, c, hw, hw], 1.0, &mut r);
        check_layer(&mut dw, &x, 0.05);
    }

    #[test]
    fn linear_gradients(in_f in 1usize..8, out_f in 1usize..6, n in 1usize..5, seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let mut fc = Linear::new(in_f, out_f, &mut r);
        let x = init::normal(&[n, in_f], 1.0, &mut r);
        check_layer(&mut fc, &x, 0.05);
    }

    #[test]
    fn relu_gradients(n in 2usize..40, seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let mut relu = Relu::new();
        // Keep values away from the kink at 0 where FD is undefined.
        let x = init::normal(&[n], 1.0, &mut r)
            .map(|v| if v.abs() < 0.1 { v + 0.2 } else { v });
        check_layer(&mut relu, &x, 0.05);
    }

    #[test]
    fn maxpool_gradients(c in 1usize..4, seed in 0u64..1000) {
        let _r = rng::seeded(seed);
        let mut pool = MaxPool2d::new(2);
        // Distinct values so the argmax is FD-stable.
        let n = c * 4 * 4;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.731 + seed as f32).sin() * 3.0).collect();
        let x = Tensor::from_vec(data, &[1, c, 4, 4]);
        check_layer(&mut pool, &x, 0.05);
    }

    #[test]
    fn batchnorm_train_gradients(c in 1usize..4, seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let mut bn = BatchNorm2d::new(c);
        let x = init::normal(&[3, c, 3, 3], 1.0, &mut r);
        check_layer(&mut bn, &x, 0.08);
    }
}
