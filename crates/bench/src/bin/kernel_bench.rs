//! CI gate + perf record for the blocked matmul kernels.
//!
//! Times the reference (naive) kernels against the register-blocked
//! ones on the products training runs: `A·B` over a ladder of shapes;
//! the Linear backward shapes with about half of `A` exact zeros (a
//! ReLU output's `dY`, which the reference's zero-skip and the blocked
//! kernel's post-check meet), `dW = dYᵀ·X` being `matmul` on a
//! transposed `dY`; the Linear forward `X·Wᵀ` of VGG16-fast; and the
//! segmented `A·Bᵀ` of the conv weight gradient at one and sixteen
//! pixels per sample, and at the shapes of MobileNetV2 ×0.5's (the fig6
//! test-bed model's) 1×1 convs at training batch 16, with 1, 4 and 16
//! pixels per sample. Each shape is bit-checked against the reference.
//! In the fig6 model at training batch 16, the depthwise forward and
//! backward of every depthwise layer, a batch-norm forward and backward
//! at every batch-norm shape and the per-sample transposes of the
//! depthwise layers are timed; so are one heterogeneous aggregation
//! round and one full local training session each of TinyCnn,
//! VGG16-fast (the fig3 model), ResNet18-fast and MobileNetV2 ×0.5.
//! Results land in a JSON report (default `BENCH_KERNELS.json`,
//! override with `--out PATH`).
//!
//! Exits non-zero when the blocked kernel is not measurably faster
//! than the reference on the largest matmul shape
//! (`speedup < MIN_SPEEDUP`) — the kernels exist to be faster; if they
//! regress to parity the optimisation is dead code.
//!
//! Every figure is the median of [`REPS`] repetitions. The two kernels
//! of a shape alternate within each repetition, and so do the timed
//! sessions, so a slow spell of a shared host hits every side alike. A
//! minimum over a few runs was not stable at sub-millisecond shapes.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use adaptivefl_bench::{paper_models, syn_cifar10, syn_widar};
use adaptivefl_core::aggregate::{aggregate_with_scratch, Upload};
use adaptivefl_core::pool::{ModelPool, DEFAULT_RATIOS};
use adaptivefl_core::trace::NoopTracer;
use adaptivefl_core::trainer::LocalTrainer;
use adaptivefl_data::{SynthSpec, SynthTask};
use adaptivefl_models::{Block, ConvSpec, ModelConfig};
use adaptivefl_nn::layer::{Layer, LayerExt};
use adaptivefl_nn::layers::BatchNorm2d;
use adaptivefl_tensor::ops::{
    depthwise_backward, depthwise_forward, matmul_a_bt_blocked, matmul_a_bt_reference,
    matmul_a_bt_segmented_blocked, matmul_a_bt_segmented_reference, matmul_blocked,
    matmul_reference, transpose, ConvGeometry,
};
use adaptivefl_tensor::{init, rng, Scratch, Tensor};
use serde::Serialize;

/// Gate: the largest shape must beat the reference by at least this.
const MIN_SPEEDUP: f64 = 1.25;
/// Timed repetitions per figure, after one untimed warm-up.
const REPS: usize = 21;

#[derive(Debug, Serialize)]
struct ShapeReport {
    op: String,
    /// Segment width of `matmul_a_bt_segmented`.
    seg: Option<usize>,
    m: usize,
    k: usize,
    n: usize,
    reference_ns: u64,
    blocked_ns: u64,
    speedup: f64,
    /// Share of exact zeros in `A`.
    a_zero_share: f64,
    bit_identical: bool,
}

/// One depthwise layer of the fig6 model.
#[derive(Debug, Serialize)]
struct DepthwiseReport {
    batch: usize,
    channels: usize,
    /// Side of the square input plane.
    side: usize,
    stride: usize,
    forward_ns: u64,
    backward_ns: u64,
}

/// One batch-norm shape of the fig6 model.
#[derive(Debug, Serialize)]
struct BatchNormReport {
    batch: usize,
    channels: usize,
    /// Side of the square plane.
    side: usize,
    /// A training forward and its backward, copies of the input and
    /// the output gradient included.
    forward_backward_ns: u64,
}

/// One per-sample transpose of the fig6 depthwise layers.
#[derive(Debug, Serialize)]
struct TransposeReport {
    rows: usize,
    cols: usize,
    /// `transpose` of a `[rows, cols]` matrix, allocation included.
    transpose_ns: u64,
}

#[derive(Debug, Serialize)]
struct SessionReport {
    model: String,
    samples: usize,
    session_ms: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    min_speedup_gate: f64,
    /// Repetitions behind each median.
    reps: usize,
    largest_shape_speedup: f64,
    shapes: Vec<ShapeReport>,
    depthwise: Vec<DepthwiseReport>,
    batchnorm: Vec<BatchNormReport>,
    transposes: Vec<TransposeReport>,
    aggregation_round_us: u64,
    sessions: Vec<SessionReport>,
}

/// Deterministic pseudo-random matrix (no RNG dependency in the hot
/// loop; same generator as the differential tests).
fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Nanoseconds `f` takes.
fn time_ns<T>(f: impl FnOnce() -> T) -> u64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_nanos() as u64
}

/// Median times of `fs`, run in turn [`REPS`] times after a warm-up,
/// the first to run rotating each repetition.
fn time_interleaved<const N: usize>(mut fs: [&mut dyn FnMut(); N]) -> [u64; N] {
    fs.iter_mut().for_each(|f| f());
    let mut ns = [(); N].map(|()| Vec::with_capacity(REPS));
    for rep in 0..REPS {
        for i in (0..N).map(|i| (i + rep) % N) {
            ns[i].push(time_ns(&mut fs[i]));
        }
    }
    ns.map(median)
}

/// `t` with every element below the median of its absolute values
/// replaced by `+0.0`: about half exact zeros, as after a ReLU.
fn half_zeros(t: Tensor) -> Tensor {
    let mut mags: Vec<f32> = t.as_slice().iter().map(|v| v.abs()).collect();
    let mid = mags.len() / 2;
    let cut = *mags.select_nth_unstable_by(mid, f32::total_cmp).1;
    t.map(|v| if v.abs() < cut { 0.0 } else { v })
}

/// A timed product; `A` is `[m, k]` and the output `[m, n]` unless
/// noted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `A·B`, `B [k, n]`.
    Matmul,
    /// `Aᵀ·B` as `matmul` on `transpose(A)`, with `A [k, m]`,
    /// `B [k, n]`: Linear's `dW = dYᵀ·X`.
    TransposeMatmul,
    /// `A·Bᵀ`, `B [n, k]`: Linear's forward.
    ABt,
    /// `matmul_a_bt_segmented` at this segment width: the conv `dW`.
    ABtSegmented(usize),
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Matmul => "matmul",
            Op::TransposeMatmul => "transpose_matmul",
            Op::ABt => "matmul_a_bt",
            Op::ABtSegmented(_) => "matmul_a_bt_segmented",
        }
    }

    /// The reference (`naive`) or blocked kernel on `a`, `b`.
    fn run(self, naive: bool, a: &Tensor, b: &Tensor) -> Tensor {
        match (self, naive) {
            (Op::Matmul, true) => matmul_reference(a, b),
            (Op::Matmul, false) => matmul_blocked(a, b),
            (Op::TransposeMatmul, true) => matmul_reference(&transpose(a), b),
            (Op::TransposeMatmul, false) => matmul_blocked(&transpose(a), b),
            (Op::ABt, true) => matmul_a_bt_reference(a, b),
            (Op::ABt, false) => matmul_a_bt_blocked(a, b),
            (Op::ABtSegmented(s), true) => matmul_a_bt_segmented_reference(a, b, s),
            (Op::ABtSegmented(s), false) => matmul_a_bt_segmented_blocked(a, b, s),
        }
    }
}

fn bench_shape(op: Op, m: usize, k: usize, n: usize, sparse_a: bool) -> ShapeReport {
    let (a, b) = match op {
        Op::Matmul => (matrix(m, k, 11 + m as u64), matrix(k, n, 13 + n as u64)),
        Op::TransposeMatmul => (matrix(k, m, 17 + m as u64), matrix(k, n, 19 + n as u64)),
        Op::ABt | Op::ABtSegmented(_) => (matrix(m, k, 23 + m as u64), matrix(n, k, 29 + n as u64)),
    };
    let a = if sparse_a { half_zeros(a) } else { a };
    let a_zero_share =
        a.as_slice().iter().filter(|&&v| v == 0.0).count() as f64 / a.numel().max(1) as f64;
    let [reference_ns, blocked_ns] = time_interleaved([
        &mut || drop(std::hint::black_box(op.run(true, &a, &b))),
        &mut || drop(std::hint::black_box(op.run(false, &a, &b))),
    ]);
    let (want, got) = (op.run(true, &a, &b), op.run(false, &a, &b));
    let bit_identical = want
        .as_slice()
        .iter()
        .zip(got.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    ShapeReport {
        op: op.name().to_string(),
        seg: match op {
            Op::ABtSegmented(s) => Some(s),
            _ => None,
        },
        m,
        k,
        n,
        reference_ns,
        blocked_ns,
        speedup: reference_ns as f64 / blocked_ns.max(1) as f64,
        a_zero_share,
        bit_identical,
    }
}

/// One heterogeneous aggregation round: a 3-level pool's submodels
/// uploaded into the full global model, drawing accumulators from a
/// warm arena (the steady-state shape of a long run).
fn bench_aggregation_round() -> u64 {
    let cfg = ModelConfig::tiny(10);
    let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
    let mut r = rng::seeded(60);
    let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
    let uploads: Vec<Upload> = (0..pool.entries().len())
        .map(|i| Upload {
            params: pool.prune_plan(i).extract(&global),
            weight: 10.0 + i as f32,
        })
        .collect();
    let scratch = Scratch::new();
    let us = (0..=REPS).map(|_| {
        let mut g = global.clone();
        let ns = time_ns(|| {
            aggregate_with_scratch(
                std::hint::black_box(&mut g),
                &uploads,
                &NoopTracer,
                0,
                &scratch,
            )
        });
        ns / 1000
    });
    median(us.skip(1).collect())
}

/// The fig6 test-bed model: MobileNetV2 ×0.5 on SynWidar.
fn fig6_mobilenet() -> (ModelConfig, SynthSpec) {
    let widar = syn_widar();
    let model = ModelConfig {
        classes: widar.classes,
        input: widar.input,
        width_mult: 0.5,
        ..ModelConfig::mobilenet_v2_fast(widar.classes)
    };
    (model, widar)
}

/// One conv of the fig6 model with the sides of its input and output
/// planes.
type ConvLayer = (ConvSpec, usize, usize);

/// Appends each conv of `blocks`, starting from a `side`² input;
/// returns the output side.
fn conv_layers(blocks: &[Block], mut side: usize, out: &mut Vec<ConvLayer>) -> usize {
    for b in blocks {
        match b {
            Block::Conv(c) => {
                let out_side = (side + 2 * c.pad - c.k) / c.stride + 1;
                out.push((c.clone(), side, out_side));
                side = out_side;
            }
            Block::Residual { main, .. } | Block::LinearResidual { main } => {
                side = conv_layers(main, side, out);
            }
            _ => {}
        }
    }
    side
}

/// Every conv of the fig6 model, in order.
fn fig6_convs() -> Vec<ConvLayer> {
    let (model, _) = fig6_mobilenet();
    let mut layers = Vec::new();
    let mut side = model.input.1;
    for seg in &model.full_blueprint(&model.full_plan()).segments {
        side = conv_layers(seg, side, &mut layers);
    }
    layers
}

/// Training batch of the per-layer rows.
const BATCH: usize = 16;

/// Depthwise forward and backward of every depthwise layer of the fig6
/// model at training batch 16.
fn bench_depthwise() -> Vec<DepthwiseReport> {
    let mut r = rng::seeded(64);
    fig6_convs()
        .into_iter()
        .filter(|(c, _, _)| c.depthwise)
        .map(|(spec, side, _)| {
            let (c, stride) = (spec.out_c, spec.stride);
            let geo = ConvGeometry {
                kh: 3,
                kw: 3,
                stride,
                pad: 1,
            };
            let w = init::normal(&[c, 1, 3, 3], 0.5, &mut r);
            let b = init::normal(&[c], 0.5, &mut r);
            let x = init::normal(&[BATCH, c, side, side], 1.0, &mut r);
            let y = depthwise_forward(&x, &w, &b, geo);
            let dy = init::normal(y.shape(), 1.0, &mut r);
            let (mut dw, mut db) = (Tensor::zeros(w.shape()), Tensor::zeros(&[c]));
            let [forward_ns, backward_ns] = time_interleaved([
                &mut || drop(std::hint::black_box(depthwise_forward(&x, &w, &b, geo))),
                &mut || {
                    let dx = depthwise_backward(&x, &dy, &w, geo, &mut dw, &mut db);
                    drop(std::hint::black_box(dx));
                },
            ]);
            DepthwiseReport {
                batch: BATCH,
                channels: c,
                side,
                stride,
                forward_ns,
                backward_ns,
            }
        })
        .collect()
}

/// `(channels, side)` of each distinct batch-norm plane of the fig6
/// model, in order of first use.
fn fig6_bn_shapes() -> Vec<(usize, usize)> {
    let mut shapes = Vec::new();
    for (c, _, out_side) in fig6_convs() {
        let out = (c.out_c, out_side);
        if c.bn && !shapes.contains(&out) {
            shapes.push(out);
        }
    }
    shapes
}

/// A training forward and backward of batch norm at every fig6 shape.
fn bench_batchnorm() -> Vec<BatchNormReport> {
    let mut r = rng::seeded(65);
    fig6_bn_shapes()
        .into_iter()
        .map(|(c, side)| {
            let mut bn = BatchNorm2d::new(c);
            let x = init::normal(&[BATCH, c, side, side], 1.0, &mut r);
            let dy = init::normal(x.shape(), 1.0, &mut r);
            let [forward_backward_ns] = time_interleaved([&mut || {
                drop(std::hint::black_box(bn.forward(x.clone(), true)));
                drop(std::hint::black_box(bn.backward(dy.clone())));
            }]);
            BatchNormReport {
                batch: BATCH,
                channels: c,
                side,
                forward_backward_ns,
            }
        })
        .collect()
}

/// The per-sample transposes of the fig6 depthwise layers: each
/// sample's `[c, h·w]` input to channel-last and its `[oh·ow, c]`
/// output back, distinct shapes in order of first use.
fn bench_transposes() -> Vec<TransposeReport> {
    let mut shapes = Vec::new();
    for (c, side, out_side) in fig6_convs().into_iter().filter(|(c, _, _)| c.depthwise) {
        for shape in [(c.out_c, side * side), (out_side * out_side, c.out_c)] {
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
        }
    }
    shapes
        .into_iter()
        .map(|(rows, cols)| {
            let a = matrix(rows, cols, 31 + rows as u64);
            let [transpose_ns] =
                time_interleaved([&mut || drop(std::hint::black_box(transpose(&a)))]);
            TransposeReport {
                rows,
                cols,
                transpose_ns,
            }
        })
        .collect()
}

/// The weight-gradient products of the fig6 model's 1×1 convs at
/// training batch 16, one per distinct `(c_out, c_in, P)`: the segmented
/// `dY·colsᵀ` `[c_out, 16·P]·[c_in, 16·P]ᵀ` with one segment per
/// sample, and at `P = 1` also the one-segment product the conv runs.
fn fig6_pointwise_dw() -> Vec<(Op, usize, usize, usize)> {
    let mut runs = Vec::new();
    for (c, _, out_side) in fig6_convs() {
        if c.k != 1 || c.depthwise {
            continue;
        }
        let p = out_side * out_side;
        let (m, k, n) = (c.out_c, BATCH * p, c.in_c);
        let mut ops = vec![Op::ABtSegmented(p)];
        if p == 1 {
            ops.push(Op::ABt);
        }
        for op in ops {
            if !runs.contains(&(op, m, k, n)) {
                runs.push((op, m, k, n));
            }
        }
    }
    runs
}

/// Samples per timed local session.
const SESSION_SAMPLES: usize = 64;

/// Full local training sessions (`LocalTrainer::fast`) of each model
/// on a synthetic shard of its dataset — the per-client unit of work of
/// every round. The models take turns within each repetition; each
/// figure is the median, in milliseconds.
fn bench_sessions(models: &[(&str, ModelConfig, SynthSpec)]) -> Vec<SessionReport> {
    let scratch = Scratch::new();
    let trainer = LocalTrainer::fast();
    let shards: Vec<_> = models
        .iter()
        .map(|(_, _, spec)| {
            let mut r = rng::seeded(61);
            let task = SynthTask::new(*spec, 2, &mut r);
            task.dataset_uniform(SESSION_SAMPLES, &mut r)
        })
        .collect();
    let mut ms = vec![Vec::with_capacity(REPS); models.len()];
    for rep in 0..=REPS {
        for i in (0..models.len()).map(|i| (i + rep) % models.len()) {
            let (name, cfg, _) = &models[i];
            let mut net = cfg.build(&cfg.full_plan(), &mut rng::seeded(62));
            let mut train_rng = rng::seeded(63 + rep as u64);
            let mut loss = f32::NAN;
            let ns = time_ns(|| {
                loss = trainer.train_with_scratch(&mut net, &shards[i], &mut train_rng, &scratch);
            });
            assert!(loss.is_finite(), "{name}: training diverged");
            if rep > 0 {
                ms[i].push(ns);
            }
        }
    }
    models
        .iter()
        .zip(ms)
        .map(|((name, _, _), ns)| SessionReport {
            model: name.to_string(),
            samples: SESSION_SAMPLES,
            session_ms: median(ns) as f64 / 1e6,
        })
        .collect()
}

/// The timed sessions: TinyCnn on the unit-test task, then the models
/// the fig3 and fig6 experiments train, on their datasets.
fn session_models() -> Vec<(&'static str, ModelConfig, SynthSpec)> {
    let mut tiny_spec = SynthSpec::test_spec(4);
    tiny_spec.input = (3, 8, 8);
    let cifar = syn_cifar10();
    let [(_, vgg16), (_, resnet18)] = paper_models(cifar.classes, cifar.input);
    let (mobilenet, widar) = fig6_mobilenet();
    vec![
        ("tiny", ModelConfig::tiny(4), tiny_spec),
        ("vgg16_fast", vgg16, cifar),
        ("resnet18_fast", resnet18, cifar),
        ("mobilenetv2_x0.5", mobilenet, widar),
    ]
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_KERNELS.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument {other} (usage: kernel_bench [--out PATH])");
                return ExitCode::FAILURE;
            }
        }
    }

    let ladder: &[(usize, usize, usize)] = &[
        (16, 16, 16),
        (32, 48, 32),
        (64, 64, 64),
        (96, 33, 128), // k not a multiple of anything: ragged edges
        (128, 128, 128),
        (256, 256, 256),
    ];
    // At batch 16 on VGG16-fast: the Linear backward over 512 features
    // with `dY` half zeros (`dX = dY·W`, `dW = dYᵀ·X`); the Linear
    // forwards 64→512, 512→512 and 512→10; the conv `dW` of the 1×1-plane
    // layers (one pixel per sample, centre tap only) and of a 16→16
    // 3×3 layer on the 4×4 plane (sixteen pixels per sample).
    let sparse = [
        (Op::Matmul, 16, 512, 512),
        (Op::TransposeMatmul, 512, 16, 512),
    ];
    let dense = [
        (Op::ABt, 16, 64, 512),
        (Op::ABt, 16, 512, 512),
        (Op::ABt, 16, 512, 10),
        (Op::ABtSegmented(1), 64, 16, 64),
        (Op::ABtSegmented(16), 16, 256, 144),
    ];
    let runs = ladder
        .iter()
        .map(|&(m, k, n)| (Op::Matmul, m, k, n, false))
        .chain(sparse.map(|(op, m, k, n)| (op, m, k, n, true)))
        .chain(dense.map(|(op, m, k, n)| (op, m, k, n, false)))
        .chain(
            fig6_pointwise_dw()
                .into_iter()
                .map(|(op, m, k, n)| (op, m, k, n, false)),
        );
    let mut shapes = Vec::new();
    for (op, m, k, n, sparse_a) in runs {
        let rep = bench_shape(op, m, k, n, sparse_a);
        println!(
            "{} {m}x{k}x{n}{}{}: reference {:.2}ms, blocked {:.2}ms, speedup {:.2}x{}",
            rep.op,
            rep.seg.map(|s| format!(" (seg {s})")).unwrap_or_default(),
            if sparse_a { " (A half zeros)" } else { "" },
            rep.reference_ns as f64 / 1e6,
            rep.blocked_ns as f64 / 1e6,
            rep.speedup,
            if rep.bit_identical {
                ""
            } else {
                "  ** BIT DRIFT **"
            },
        );
        shapes.push(rep);
    }

    let depthwise = bench_depthwise();
    for d in &depthwise {
        println!(
            "depthwise {}x{}x{s}x{s} stride {}: forward {:.3}ms, backward {:.3}ms",
            d.batch,
            d.channels,
            d.stride,
            d.forward_ns as f64 / 1e6,
            d.backward_ns as f64 / 1e6,
            s = d.side,
        );
    }
    let total = |f: fn(&DepthwiseReport) -> u64| depthwise.iter().map(f).sum::<u64>() as f64 / 1e6;
    println!(
        "depthwise, all {} fig6 layers: forward {:.2}ms, backward {:.2}ms",
        depthwise.len(),
        total(|d| d.forward_ns),
        total(|d| d.backward_ns),
    );

    let batchnorm = bench_batchnorm();
    for b in &batchnorm {
        println!(
            "batchnorm {}x{}x{s}x{s}: forward + backward {:.3}ms",
            b.batch,
            b.channels,
            b.forward_backward_ns as f64 / 1e6,
            s = b.side,
        );
    }
    let transposes = bench_transposes();
    for t in &transposes {
        println!(
            "transpose {}x{}: {:.2}us",
            t.rows,
            t.cols,
            t.transpose_ns as f64 / 1e3
        );
    }

    let aggregation_round_us = bench_aggregation_round();
    println!("aggregation round (tiny, 3 uploads): {aggregation_round_us}us");
    let sessions = bench_sessions(&session_models());
    for s in &sessions {
        println!(
            "local training session ({}, {} samples): {:.1}ms",
            s.model, s.samples, s.session_ms
        );
    }

    let (largest, drift) = {
        let big = shapes
            .iter()
            .find(|s| s.op == "matmul" && (s.m, s.k, s.n) == (256, 256, 256))
            .expect("largest shape benched");
        (big.speedup, shapes.iter().any(|s| !s.bit_identical))
    };

    let report = Report {
        min_speedup_gate: MIN_SPEEDUP,
        reps: REPS,
        largest_shape_speedup: largest,
        shapes,
        depthwise,
        batchnorm,
        transposes,
        aggregation_round_us,
        sessions,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    if drift {
        eprintln!("FAIL: blocked kernel output drifted bitwise from the reference");
        return ExitCode::FAILURE;
    }
    if largest < MIN_SPEEDUP {
        eprintln!("FAIL: largest-shape speedup {largest:.2}x is below the {MIN_SPEEDUP:.2}x gate");
        return ExitCode::FAILURE;
    }
    println!("PASS: largest-shape speedup {largest:.2}x >= {MIN_SPEEDUP:.2}x");
    ExitCode::SUCCESS
}
