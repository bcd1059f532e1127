//! Executable-network integration tests: blueprint/runtime consistency,
//! residual gradients, multi-exit training, and learnability.
//! `suite_passes_with_reference_kernels` reruns the suite under
//! `TENSOR_NAIVE=1`, so one `cargo test` checks both kernel modes.

use adaptivefl_models::{ModelConfig, Network, PruneSpec};
use adaptivefl_nn::layer::{Layer, LayerExt, ParamKind};
use adaptivefl_nn::loss::softmax_cross_entropy;
use adaptivefl_nn::metrics::accuracy;
use adaptivefl_nn::optim::Sgd;
use adaptivefl_tensor::ops::naive_kernels_forced;
use adaptivefl_tensor::{init, rng, Tensor};

/// Every family: the runtime network's parameter names/shapes must be
/// exactly the blueprint's shape table.
#[test]
fn runtime_params_match_blueprint_shapes() {
    let configs = [
        ModelConfig::vgg16_fast(10),
        ModelConfig::resnet18_fast(10),
        ModelConfig::mobilenet_v2_fast(10),
        ModelConfig::tiny(10),
    ];
    for cfg in configs {
        for spec in [PruneSpec::full(), PruneSpec::new(0.5, cfg.min_start_unit())] {
            let plan = cfg.plan(&spec);
            let bp = cfg.full_blueprint(&plan);
            let mut r = rng::seeded(1);
            let net = Network::build(&bp, &mut r);
            let mut runtime: Vec<(String, Vec<usize>)> = Vec::new();
            net.visit_params("", &mut |n: &str, _: ParamKind, v: &Tensor, _: &Tensor| {
                runtime.push((n.to_string(), v.shape().to_vec()));
            });
            let mut expected: Vec<(String, Vec<usize>)> =
                bp.shapes().into_iter().map(|(n, s, _)| (n, s)).collect();
            runtime.sort();
            expected.sort();
            assert_eq!(runtime, expected, "{:?} {:?}", cfg.kind, spec);
        }
    }
}

/// The cost model's parameter count must equal the instantiated
/// network's parameter count.
#[test]
fn cost_params_match_network_params() {
    for cfg in [
        ModelConfig::vgg16_fast(10),
        ModelConfig::resnet18_fast(10),
        ModelConfig::mobilenet_v2_fast(10),
        ModelConfig::tiny(10),
    ] {
        let plan = cfg.plan(&PruneSpec::new(0.66, cfg.min_start_unit()));
        let mut r = rng::seeded(2);
        let net = cfg.build(&plan, &mut r);
        assert_eq!(
            net.num_params() as u64,
            cfg.num_params(&plan),
            "{:?}",
            cfg.kind
        );
    }
}

/// Finite-difference gradient check through a ResNet (residual +
/// projection shortcut + BN path).
#[test]
fn resnet_gradient_matches_finite_differences() {
    let cfg = ModelConfig {
        kind: adaptivefl_models::ModelKind::ResNet18,
        input: (2, 4, 4),
        classes: 3,
        width_mult: 1.0 / 16.0,
    };
    let plan = cfg.plan(&PruneSpec::new(0.5, 2));
    let mut r = rng::seeded(3);
    let mut net = cfg.build(&plan, &mut r);
    let x = init::normal(&[2, 2, 4, 4], 1.0, &mut r);
    let labels = [0usize, 2];

    net.zero_grads();
    let logits = net.forward(x.clone(), true);
    let out = softmax_cross_entropy(&logits, &labels);
    let _ = net.backward(out.dlogits);

    // Collect analytic grads.
    let mut grads: Vec<(String, Tensor)> = Vec::new();
    net.visit_params("", &mut |n: &str, k: ParamKind, _: &Tensor, g: &Tensor| {
        if k == ParamKind::Weight {
            grads.push((n.to_string(), g.clone()));
        }
    });
    assert!(!grads.is_empty());

    // Perturb one weight entry in a handful of layers. BN batch
    // statistics make the function slightly non-local, so tolerance is
    // loose but the sign and magnitude must match.
    let eps = 5e-3f32;
    let mut checked = 0;
    for (name, g) in grads.iter().step_by(3).take(4) {
        let idx = g.numel() / 2;
        let ana = g.as_slice()[idx];
        let mut loss_at = |delta: f32| {
            net.visit_params_mut(
                "",
                &mut |n: &str, _: ParamKind, v: &mut Tensor, _: &mut Tensor| {
                    if n == name {
                        v.as_mut_slice()[idx] += delta;
                    }
                },
            );
            let l = softmax_cross_entropy(&net.forward(x.clone(), true), &labels).loss;
            net.visit_params_mut(
                "",
                &mut |n: &str, _: ParamKind, v: &mut Tensor, _: &mut Tensor| {
                    if n == name {
                        v.as_mut_slice()[idx] -= delta;
                    }
                },
            );
            l
        };
        let num = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
        assert!(
            (num - ana).abs() < 0.1 * (1.0 + ana.abs().max(num.abs())),
            "{name}[{idx}]: numeric {num} vs analytic {ana}"
        );
        checked += 1;
    }
    assert!(checked >= 3);
}

/// A TinyCnn must be able to overfit a small random batch — the
/// end-to-end sanity check that forward/backward/SGD compose.
#[test]
fn tiny_cnn_overfits_small_batch() {
    let cfg = ModelConfig::tiny(4);
    let mut r = rng::seeded(4);
    let mut net = cfg.build(&cfg.full_plan(), &mut r);
    // Structured task: each class shifts a different input channel
    // region so a conv+GAP model can separate them.
    let mut x = init::normal(&[16, 3, 16, 16], 0.3, &mut r);
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    for (i, &y) in labels.iter().enumerate() {
        let base = i * 3 * 256 + (y % 3) * 256;
        let quadrant = y / 3; // class 3 uses channel 0 but offset region
        for j in 0..128 {
            x.as_mut_slice()[base + j + quadrant * 128] += 1.5;
        }
    }
    let mut opt = Sgd::new(0.05, 0.9);
    let mut last_acc = 0.0;
    for _ in 0..60 {
        net.zero_grads();
        let logits = net.forward(x.clone(), true);
        last_acc = accuracy(&logits, &labels);
        if last_acc == 1.0 {
            break;
        }
        let out = softmax_cross_entropy(&logits, &labels);
        let _ = net.backward(out.dlogits);
        opt.step(&mut net);
    }
    assert!(last_acc >= 0.9, "accuracy only {last_acc}");
}

/// Multi-exit forward/backward: every active exit produces logits and
/// receives gradients; trunk grads accumulate from all exits.
#[test]
fn multi_exit_training_works() {
    let cfg = ModelConfig::tiny(5);
    let plan = cfg.full_plan();
    let bp = cfg.blueprint(&plan, 3, true);
    let mut r = rng::seeded(5);
    let mut net = Network::build(&bp, &mut r);
    assert_eq!(net.exit_points(), vec![0, 1, 2]);

    let x = init::normal(&[4, 3, 16, 16], 1.0, &mut r);
    let labels = [0usize, 1, 2, 3];
    net.zero_grads();
    let outs = net.forward_multi(x);
    assert_eq!(outs.len(), 3);
    for (_, logits) in &outs {
        assert_eq!(logits.shape(), &[4, 5]);
    }
    let grads: Vec<(usize, Tensor)> = outs
        .iter()
        .map(|(e, logits)| (*e, softmax_cross_entropy(logits, &labels).dlogits))
        .collect();
    let dx = net.backward_multi(grads);
    assert_eq!(dx.shape(), &[4, 3, 16, 16]);
    assert!(dx.sq_norm() > 0.0);

    // The first conv must have received gradient from all three paths.
    let mut found = false;
    net.visit_params("", &mut |n: &str, _: ParamKind, _: &Tensor, g: &Tensor| {
        if n == "conv0.weight" {
            assert!(g.sq_norm() > 0.0);
            found = true;
        }
    });
    assert!(found);
}

/// Param maps round-trip through load for a pruned MobileNet (exercises
/// depthwise + inverted residual parameter naming).
#[test]
fn mobilenet_param_roundtrip() {
    let cfg = ModelConfig::mobilenet_v2_fast(6);
    let plan = cfg.plan(&PruneSpec::new(0.4, 4));
    let mut r = rng::seeded(6);
    let net = cfg.build(&plan, &mut r);
    let snap = net.param_map();
    let mut net2 = cfg.build(&plan, &mut rng::seeded(7));
    assert_ne!(net2.param_map(), snap);
    net2.load_param_map(&snap);
    assert_eq!(net2.param_map(), snap);
}

fn bits(map: &adaptivefl_nn::ParamMap) -> Vec<(String, Vec<u32>)> {
    map.iter()
        .map(|(n, t)| {
            (
                n.to_string(),
                t.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// sBN inference (`forward(x, false)`) gives the final logits of a
/// training pass of every exit bit for bit, leaves every parameter
/// (running statistics included) as it was, and caches nothing: a
/// backward right after it finds no forward. Covers the paper models
/// and a ScaleFL multi-exit blueprint, whose aux heads inference skips.
#[test]
fn inference_equals_training_forward_and_caches_nothing() {
    let mobilenet = ModelConfig {
        input: (1, 16, 16),
        width_mult: 0.5,
        ..ModelConfig::mobilenet_v2_fast(22)
    };
    let tiny = ModelConfig::tiny(5);
    let full = |cfg: ModelConfig| (cfg, cfg.full_blueprint(&cfg.full_plan()));
    let cases = [
        ("vgg16-fast", full(ModelConfig::vgg16_fast(10))),
        ("resnet18-fast", full(ModelConfig::resnet18_fast(10))),
        (
            "mobilenetv2-x0.5",
            (
                mobilenet,
                mobilenet.full_blueprint(&mobilenet.plan(&PruneSpec::new(0.6, 4))),
            ),
        ),
        (
            "scalefl-tiny-full",
            (tiny, tiny.blueprint(&tiny.full_plan(), 3, true)),
        ),
        (
            "scalefl-tiny-level",
            (
                tiny,
                tiny.blueprint(&tiny.plan(&PruneSpec::new(0.6, 0)), 2, true),
            ),
        ),
    ];
    for (i, (what, (cfg, bp))) in cases.into_iter().enumerate() {
        let mut r = rng::seeded(40 + i as u64);
        // One SGD step moves the weights and running statistics off
        // their initial values.
        let mut trained = Network::build(&bp, &mut r);
        let (c, h, w) = cfg.input;
        let x = init::normal(&[6, c, h, w], 1.0, &mut r);
        let labels = [0usize, 1, 2, 3, 4, 0];
        let outs = trained.forward_multi(x.clone());
        let grads = outs
            .iter()
            .map(|(e, l)| (*e, softmax_cross_entropy(l, &labels).dlogits))
            .collect();
        let _ = trained.backward_multi(grads);
        Sgd::new(0.05, 0.5).step(&mut trained);
        let params = trained.param_map();

        let x = init::normal(&[6, c, h, w], 1.0, &mut r);
        let mut reference = Network::build(&bp, &mut rng::seeded(1));
        reference.load_param_map(&params);
        let (_, want) = reference
            .forward_multi(x.clone())
            .pop()
            .expect("final exit");
        let mut net = Network::build(&bp, &mut rng::seeded(2));
        net.load_param_map(&params);
        let got = net.forward(x, false);

        assert_eq!(got.shape(), want.shape(), "{what}");
        let same = got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{what}: inference logits differ from the training pass"
        );
        assert_eq!(
            bits(&net.param_map()),
            bits(&params),
            "{what}: parameters moved"
        );

        let last = *net.exit_points().last().expect("final exit");
        let dy = Tensor::ones(got.shape());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.backward_multi(vec![(last, dy)])
        }))
        .expect_err("backward after inference must panic");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("without forward"), "{what}: {msg}");
    }
}

/// A plain `cargo test` runs this suite with the default kernels. This
/// test reruns it once under `TENSOR_NAIVE=1`, so the reference kernels
/// are checked by the same cases.
#[test]
fn suite_passes_with_reference_kernels() {
    if naive_kernels_forced() {
        return; // this process is the reference-kernel run
    }
    let me = "suite_passes_with_reference_kernels";
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .env("TENSOR_NAIVE", "1")
        .args(["--skip", me])
        .output()
        .expect("rerun the suite");
    assert!(
        out.status.success(),
        "suite failed under TENSOR_NAIVE=1:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
